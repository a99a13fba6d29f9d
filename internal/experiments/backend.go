package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"spe/internal/campaign"
	"spe/internal/corpus"
)

// BackendBenchResult is the machine-readable outcome of the backend
// benchmark (emitted as BENCH_backend.json by cmd/spebench). Where the
// variants experiment isolates the front end (instantiation), this one
// measures the per-variant cost of the execution backends — the reference
// interpreter and the minicc compile+run pipeline — with pooled,
// template-cached state versus the cold-per-variant baseline.
type BackendBenchResult struct {
	Workers int `json:"workers"`
	Files   int `json:"files"`
	// full differential campaign throughput, pooled backends vs cold
	CampaignVariants int     `json:"campaign_variants"`
	ColdVPS          float64 `json:"campaign_cold_variants_per_sec"`
	ReuseVPS         float64 `json:"campaign_reuse_variants_per_sec"`
	Speedup          float64 `json:"campaign_reuse_speedup"`
	// ReportsIdentical confirms reuse on and off produced byte-identical
	// reports; ParanoidChecked additionally confirms a reuse campaign
	// passed the per-variant paranoid cross-checks (render+reparse+binding
	// assertion and patched-IR vs fresh-lowering).
	ReportsIdentical bool `json:"reports_identical"`
	ParanoidChecked  bool `json:"paranoid_checked"`
}

// BackendBench measures full-campaign variants/sec with backend reuse on
// and off and cross-checks the two reports for equivalence. When
// scale.BenchJSON is set the result is also written there as JSON.
func BackendBench(scale Scale) (string, error) {
	scale = scale.withDefaults()
	progs := corpus.Seeds()
	progs = append(progs, corpus.Generate(corpus.Config{N: scale.CampaignCorpus, Seed: scale.Seed + 2})...)
	res := &BackendBenchResult{Workers: scale.Workers, Files: len(progs)}

	run := func(noReuse, paranoid bool) (*campaign.Report, float64, error) {
		cfg := campaign.Config{
			Corpus:             progs,
			Versions:           []string{"trunk"},
			Threshold:          -1,
			MaxVariantsPerFile: scale.MaxVariants,
			Workers:            scale.Workers,
			NoBackendReuse:     noReuse,
			Paranoid:           paranoid,
			Telemetry:          scale.Telemetry,
		}
		start := time.Now()
		rep, err := campaign.Run(cfg)
		return rep, time.Since(start).Seconds(), err
	}

	coldRep, coldSec, err := run(true, false)
	if err != nil {
		return "", fmt.Errorf("experiments: backend: cold campaign: %w", err)
	}
	reuseRep, reuseSec, err := run(false, false)
	if err != nil {
		return "", fmt.Errorf("experiments: backend: reuse campaign: %w", err)
	}
	res.CampaignVariants = reuseRep.Stats.Variants
	res.ColdVPS = float64(coldRep.Stats.Variants) / coldSec
	res.ReuseVPS = float64(reuseRep.Stats.Variants) / reuseSec
	res.Speedup = res.ReuseVPS / res.ColdVPS
	base := reuseRep.Format()
	res.ReportsIdentical = coldRep.Format() == base
	if !res.ReportsIdentical {
		return "", fmt.Errorf("experiments: backend: report diverges with reuse on and off")
	}
	if scale.Paranoid {
		paranoidRep, _, err := run(false, true)
		if err != nil {
			return "", fmt.Errorf("experiments: backend: paranoid cross-check: %w", err)
		}
		if paranoidRep.Format() != base {
			return "", fmt.Errorf("experiments: backend: paranoid report diverges")
		}
		res.ParanoidChecked = true
	}

	if scale.BenchJSON != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return "", fmt.Errorf("experiments: backend: %w", err)
		}
		if err := os.WriteFile(scale.BenchJSON, append(data, '\n'), 0o644); err != nil {
			return "", fmt.Errorf("experiments: backend: %w", err)
		}
	}

	out := "Backend throughput: pooled interp/minicc state vs cold per-variant backends\n"
	out += fmt.Sprintf("  corpus: %d files, %d campaign variants (workers=%d)\n",
		res.Files, res.CampaignVariants, res.Workers)
	out += fmt.Sprintf("  full campaign: cold %8.0f variants/s | reuse %8.0f variants/s | speedup %.2fx\n",
		res.ColdVPS, res.ReuseVPS, res.Speedup)
	out += fmt.Sprintf("  reports byte-identical: %v, paranoid cross-check: %v\n",
		res.ReportsIdentical, res.ParanoidChecked)
	return out, nil
}
