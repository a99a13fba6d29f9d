package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"spe/internal/campaign"
	"spe/internal/corpus"
)

// OracleBenchResult is the machine-readable outcome of the oracle
// benchmark (emitted as BENCH_oracle.json by cmd/spebench). Where the
// backend experiment measures pooled-vs-cold execution state, this one
// measures the reference oracle itself: the tree-walking UB-checking
// interpreter versus the skeleton-compiled bytecode VM.
type OracleBenchResult struct {
	Workers int `json:"workers"`
	Files   int `json:"files"`
	// full differential campaign throughput under each oracle
	CampaignVariants int     `json:"campaign_variants"`
	TreeVPS          float64 `json:"campaign_tree_variants_per_sec"`
	BytecodeVPS      float64 `json:"campaign_bytecode_variants_per_sec"`
	Speedup          float64 `json:"campaign_bytecode_speedup"`
	// ReportsIdentical confirms both oracles produced byte-identical
	// reports; ParanoidChecked additionally confirms a bytecode campaign
	// passed the per-variant tree-vs-bytecode verdict cross-check.
	ReportsIdentical bool `json:"reports_identical"`
	ParanoidChecked  bool `json:"paranoid_checked"`
}

// OracleBench measures full-campaign variants/sec with the tree-walking
// and bytecode reference oracles and cross-checks their reports for
// equivalence. When scale.BenchJSON is set the result is also written
// there as JSON.
func OracleBench(scale Scale) (string, error) {
	scale = scale.withDefaults()
	progs := corpus.Seeds()
	progs = append(progs, corpus.Generate(corpus.Config{N: scale.CampaignCorpus, Seed: scale.Seed + 3})...)
	res := &OracleBenchResult{Workers: scale.Workers, Files: len(progs)}

	run := func(oracle string, paranoid bool) (*campaign.Report, float64, error) {
		cfg := campaign.Config{
			Corpus:             progs,
			Versions:           []string{"trunk"},
			Threshold:          -1,
			MaxVariantsPerFile: scale.MaxVariants,
			Workers:            scale.Workers,
			Oracle:             oracle,
			Paranoid:           paranoid,
			Telemetry:          scale.Telemetry,
		}
		start := time.Now()
		rep, err := campaign.Run(cfg)
		return rep, time.Since(start).Seconds(), err
	}

	treeRep, treeSec, err := run(campaign.OracleTree, false)
	if err != nil {
		return "", fmt.Errorf("experiments: oracle: tree campaign: %w", err)
	}
	bcRep, bcSec, err := run(campaign.OracleBytecode, false)
	if err != nil {
		return "", fmt.Errorf("experiments: oracle: bytecode campaign: %w", err)
	}
	res.CampaignVariants = bcRep.Stats.Variants
	res.TreeVPS = float64(treeRep.Stats.Variants) / treeSec
	res.BytecodeVPS = float64(bcRep.Stats.Variants) / bcSec
	res.Speedup = res.BytecodeVPS / res.TreeVPS
	base := bcRep.Format()
	res.ReportsIdentical = treeRep.Format() == base
	if !res.ReportsIdentical {
		return "", fmt.Errorf("experiments: oracle: report diverges across oracles")
	}
	if scale.Paranoid {
		paranoidRep, _, err := run(campaign.OracleBytecode, true)
		if err != nil {
			return "", fmt.Errorf("experiments: oracle: paranoid cross-check: %w", err)
		}
		if paranoidRep.Format() != base {
			return "", fmt.Errorf("experiments: oracle: paranoid report diverges")
		}
		res.ParanoidChecked = true
	}

	if scale.BenchJSON != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return "", fmt.Errorf("experiments: oracle: %w", err)
		}
		if err := os.WriteFile(scale.BenchJSON, append(data, '\n'), 0o644); err != nil {
			return "", fmt.Errorf("experiments: oracle: %w", err)
		}
	}

	out := "Oracle throughput: skeleton-compiled bytecode reference VM vs tree-walking interpreter\n"
	out += fmt.Sprintf("  corpus: %d files, %d campaign variants (workers=%d)\n",
		res.Files, res.CampaignVariants, res.Workers)
	out += fmt.Sprintf("  full campaign: tree %8.0f variants/s | bytecode %8.0f variants/s | speedup %.2fx\n",
		res.TreeVPS, res.BytecodeVPS, res.Speedup)
	out += fmt.Sprintf("  reports byte-identical: %v, paranoid cross-check: %v\n",
		res.ReportsIdentical, res.ParanoidChecked)
	return out, nil
}
