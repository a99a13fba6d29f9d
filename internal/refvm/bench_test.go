package refvm

import (
	"testing"

	"spe/internal/cc"
	"spe/internal/corpus"
	"spe/internal/interp"
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

// BenchmarkOracleTree is the tree-walking reference oracle on a pooled
// machine (the PR 4 hot path).
func BenchmarkOracleTree(b *testing.B) {
	progs := benchPrograms(b)
	m := interp.NewMachine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(progs[i%len(progs)], interp.Config{})
	}
}

// BenchmarkOracleBytecode is the bytecode oracle through the template
// cache (compile once, patch and run per variant) with superinstruction
// fusion.
func BenchmarkOracleBytecode(b *testing.B) {
	progs := benchPrograms(b)
	ca := NewCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ca.Run(progs[i%len(progs)], nil, Config{})
	}
}

// BenchmarkOracleBytecodeNoFuse compiles without the superinstruction
// pass — the A/B partner for isolating what fusion alone buys.
func BenchmarkOracleBytecodeNoFuse(b *testing.B) {
	progs := benchPrograms(b)
	compiled := make([]*program, len(progs))
	for i, p := range progs {
		compiled[i] = compileProgramOpt(p, nil, true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newVMState().run(compiled[i%len(compiled)], Config{})
	}
}
