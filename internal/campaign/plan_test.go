package campaign

import (
	"context"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"spe/internal/corpus"
	"spe/internal/spe"
)

// clampSeed has a canonical variant count large enough that a small
// per-file budget pushes the budget-proportional stride far past the walk
// bound: ten interchangeable-in-pairs globals referenced from many holes.
const clampSeed = `
int a = 1, b = 2, c = 3, d = 4, e = 5;
int main() {
    int s = 0;
    s = a + b + c + d + e;
    s = s + a * b + c * d + e;
    s = s - a - b - c - d - e;
    s = s + a % 7 + b % 7 + c % 7;
    return s % 251;
}
`

// clampSeedInt64 clamps too, but with a canonical count that still fits
// int64, covering the other arm of the stride computation.
const clampSeedInt64 = `
int a = 1, b = 2, c = 3;
int main() {
    int s = 0;
    s = a + b + c;
    s = s + a * b + c;
    return s % 251;
}
`

// TestStrideClampSurfaced is the regression test for the historically
// silent stride=64 clamp: a huge canonical count with a tiny budget must
// (a) still clamp the walk, and (b) say so in the plan info and the
// formatted report, so the skipped coverage is visible. Both the int64 and
// the big-count stride arms are exercised.
func TestStrideClampSurfaced(t *testing.T) {
	for _, tc := range []struct {
		name      string
		seed      string
		wantInt64 bool
	}{
		{"big-count", clampSeed, false},
		{"int64-count", clampSeedInt64, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Corpus:             []string{tc.seed},
				Versions:           []string{"trunk"},
				MaxVariantsPerFile: 3,
				Threshold:          -1,
			}
			cfg = cfg.withDefaults()
			plan, err := buildPlan(cfg, 0, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			if plan.canonical.IsInt64() != tc.wantInt64 {
				t.Fatalf("canonical count %s: IsInt64=%v, test seed no longer covers the %s arm",
					plan.canonical, plan.canonical.IsInt64(), tc.name)
			}
			budget := big.NewInt(int64(cfg.MaxVariantsPerFile))
			if plan.canonical.Cmp(new(big.Int).Mul(big.NewInt(64), budget)) <= 0 {
				t.Fatalf("canonical count %s too small to trigger the clamp; pick a bigger seed", plan.canonical)
			}
			if plan.stride != 64 {
				t.Fatalf("stride = %d, want the 64 walk bound", plan.stride)
			}
			if !plan.clamped {
				t.Fatal("clamp engaged but not recorded")
			}
			if want := new(big.Int).Quo(plan.canonical, budget); plan.unclamped.Cmp(want) != 0 {
				t.Errorf("unclamped stride = %s, want %s", plan.unclamped, want)
			}

			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Plans) != 1 {
				t.Fatalf("report carries %d plans, want 1", len(rep.Plans))
			}
			pi := rep.Plans[0]
			if !pi.Clamped || pi.Stride != 64 || pi.UnclampedStride != plan.unclamped.String() {
				t.Errorf("plan info does not surface the clamp: %+v", pi)
			}
			wantLine := fmt.Sprintf("plan: file 0 stride clamped %s -> 64 (walked %d of %s canonical variants)",
				pi.UnclampedStride, pi.Tested, pi.Canonical)
			if !strings.Contains(rep.Format(), wantLine) {
				t.Errorf("formatted report missing clamp line %q:\n%s", wantLine, rep.Format())
			}
		})
	}
}

// TestUnclampedPlanStaysQuiet asserts files whose stride fits the walk
// bound produce no clamp chatter in the report.
func TestUnclampedPlanStaysQuiet(t *testing.T) {
	rep, err := Run(Config{
		Corpus:             corpus.Seeds()[:2],
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pi := range rep.Plans {
		if pi.Clamped {
			t.Fatalf("plan %+v claims a clamp under a generous budget", pi)
		}
	}
	if strings.Contains(rep.Format(), "stride clamped") {
		t.Errorf("report mentions a clamp that never happened:\n%s", rep.Format())
	}
}

// TestPlansSurviveResumeDerivation asserts Plans are re-derived (not
// checkpointed): a report's plans equal a fresh buildPlan over the same
// config.
func TestPlansSurviveResumeDerivation(t *testing.T) {
	cfg := Config{
		Corpus:             []string{clampSeed},
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 3,
		Threshold:          -1,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := buildPlan(cfg.withDefaults(), 0, clampSeed)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plans[0] != plan.info() {
		t.Errorf("report plan %+v diverges from derived plan %+v", rep.Plans[0], plan.info())
	}
}

// TestCampaignReleasesCountTables asserts each walked file builds its
// counting tables exactly once and does not keep them past its walk. After
// Run returns (every schedule, one and four workers) no pool holds tables.
// A Planner running every task by spec, one at a time, builds each file's
// tables once too, and holds at most the last-run file's afterwards.
func TestCampaignReleasesCountTables(t *testing.T) {
	base := Config{
		Corpus:             corpus.Seeds()[:6],
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 40,
		ShardSize:          8,
	}
	// check reports each pool that did not build its tables exactly once,
	// or that holds them when held(i) says it should not (or the reverse);
	// a pool that released its tables builds them again on the next Get
	check := func(name string, pools []*spe.Pool, held func(i int) bool) {
		t.Helper()
		if len(pools) == 0 {
			t.Fatalf("%s: no pools to check", name)
		}
		for i, p := range pools {
			if _, _, builds := p.Stats(); builds != 1 {
				t.Errorf("%s: pool %d built its tables %d times, want 1", name, i, builds)
			}
			p.Put(p.Get())
			_, _, after := p.Stats()
			if holds := after == 1; holds != held(i) {
				t.Errorf("%s: pool %d holds its counting tables: %v, want %v", name, i, holds, held(i))
			}
		}
	}
	none := func(int) bool { return false }
	for _, schedule := range []string{ScheduleFIFO, ScheduleCoverage, ScheduleRegion} {
		for _, workers := range []int{1, 4} {
			cfg := base
			cfg.Schedule = schedule
			cfg.Workers = workers
			tel := NewTelemetry()
			cfg.Telemetry = tel
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("Run schedule=%s workers=%d", schedule, workers), tel.pools, none)
		}
	}

	pl, err := NewPlanner(base)
	if err != nil {
		t.Fatal(err)
	}
	var pools []*spe.Pool
	for _, tk := range pl.bySeq {
		if _, err := pl.RunSpec(context.Background(), specOf(tk)); err != nil {
			t.Fatal(err)
		}
		if tk.newFile && tk.plan.pool != nil {
			pools = append(pools, tk.plan.pool)
		}
	}
	last := pl.bySeq[len(pl.bySeq)-1].plan.pool
	check("Planner.RunSpec", pools, func(i int) bool { return pools[i] == last })
}

// BenchmarkPlanCorpus measures planning alone — parse, analyze,
// skeletonize and count every file on the configured workers — over the
// bundled seeds plus 60 generated files.
func BenchmarkPlanCorpus(b *testing.B) {
	files := append(corpus.Seeds(), corpus.Generate(corpus.Config{N: 60, Seed: 20170625})...)
	cfg := Config{Corpus: files, Versions: []string{"trunk"}, MaxVariantsPerFile: 50}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewPlanner(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
