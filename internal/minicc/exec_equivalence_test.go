package minicc_test

import (
	"fmt"
	"testing"

	"spe/internal/cc"
	"spe/internal/corpus"
	"spe/internal/minicc"
)

// These tests pin the backend VM's speed-axis invariant: verdicts —
// compile outcome, execution result down to step counts, and per-site
// coverage — are identical with superinstruction fusion on and off,
// corpus-wide.

func equivPrograms(t *testing.T) []*cc.Program {
	t.Helper()
	srcs := corpus.Seeds()
	if !testing.Short() {
		srcs = append(srcs, corpus.Generate(corpus.Config{N: 15, Seed: 41})...)
	}
	progs := make([]*cc.Program, 0, len(srcs))
	for _, src := range srcs {
		f, err := cc.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := cc.Analyze(f)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	return progs
}

// TestDispatchFusionEquivalence compares the fused VM against the
// unfused one (the pre-fusion semantics) for every corpus program under
// every compiler configuration.
func TestDispatchFusionEquivalence(t *testing.T) {
	progs := equivPrograms(t)
	for pi, prog := range progs {
		for _, ver := range []string{"4.8", "trunk"} {
			for _, opt := range minicc.OptLevels {
				baseCov := minicc.NewCoverage()
				base := &minicc.Compiler{Version: ver, Opt: opt, Seeded: true, Coverage: baseCov}
				want := base.Run(prog, minicc.ExecConfig{NoFuse: true})
				cov := minicc.NewCoverage()
				c := &minicc.Compiler{Version: ver, Opt: opt, Seeded: true, Coverage: cov}
				got := c.Run(prog, minicc.ExecConfig{})
				label := fmt.Sprintf("prog %d %s -O%d", pi, ver, opt)
				if err := sameOutcome(got, want); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for _, site := range minicc.Sites() {
					if g, w := cov.SiteCount(site), baseCov.SiteCount(site); g != w {
						t.Fatalf("%s: coverage site %s: %d hits, want %d", label, site, g, w)
					}
				}
			}
		}
	}
}
