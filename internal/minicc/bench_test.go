package minicc_test

import (
	"testing"

	"spe/internal/cc"
	"spe/internal/corpus"
	"spe/internal/minicc"
)

func benchPrograms(b *testing.B) []*cc.Program {
	b.Helper()
	var progs []*cc.Program
	srcs := corpus.Seeds()
	srcs = append(srcs, corpus.Generate(corpus.Config{N: 20, Seed: 99})...)
	for _, src := range srcs {
		f, err := cc.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		p, err := cc.Analyze(f)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, p)
	}
	return progs
}

// BenchmarkBackendMinicc is the compiled-binary backend on the campaign
// hot path: template-cached compilation (trunk -O2) over fused IR.
func BenchmarkBackendMinicc(b *testing.B) {
	progs := benchPrograms(b)
	ca := minicc.NewCache()
	c := &minicc.Compiler{Version: "trunk", Opt: 2, Seeded: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunCached(ca, progs[i%len(progs)], nil, minicc.ExecConfig{}, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBackendMiniccNoFuse is the same workload with fusion disabled,
// for isolating what fusion buys.
func BenchmarkBackendMiniccNoFuse(b *testing.B) {
	progs := benchPrograms(b)
	ca := minicc.NewCache()
	c := &minicc.Compiler{Version: "trunk", Opt: 2, Seeded: true}
	cfg := minicc.ExecConfig{NoFuse: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunCached(ca, progs[i%len(progs)], nil, cfg, false); err != nil {
			b.Fatal(err)
		}
	}
}
