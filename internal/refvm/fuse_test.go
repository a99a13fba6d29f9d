package refvm

import (
	"testing"

	"spe/internal/cc"
	"spe/internal/corpus"
	"spe/internal/interp"
)

// These tests pin the execution-loop equivalence contract: the opcode
// switch, with and without superinstruction fusion, must return
// observationally identical Results — output bytes, exit status, abort
// flag, UB kind+position, limit presence, and step count — for every
// program, because the campaign's reports are a pure function of that
// verdict surface.

// TestDispatchEquivalence sweeps the corpus through the opcode-switch
// loop and compares each verdict against the tree-walking oracle.
func TestDispatchEquivalence(t *testing.T) {
	progs := corpus.Seeds()
	n := 80
	if testing.Short() {
		n = 20
	}
	progs = append(progs, corpus.Generate(corpus.Config{N: n, Seed: 20170618})...)
	for i, src := range progs {
		prog := cc.MustAnalyze(src)
		tree := interp.Run(prog, interp.Config{})
		if err := diff(tree, Run(prog, Config{})); err != nil {
			t.Errorf("file[%d]: %v", i, err)
		}
		if t.Failed() {
			break
		}
	}
}

// countSuperOps tallies fused superinstructions across a compiled
// program's functions.
func countSuperOps(p *program) int {
	n := 0
	count := func(fn *fnCode) {
		for i := range fn.code {
			switch fn.code[i].op {
			case opLoadVarBinop, opConstBinop, opBinopJz, opBinopJnz, opConstStore:
				n++
			}
		}
	}
	for _, fn := range p.fns {
		count(fn)
	}
	count(p.entry)
	return n
}

// TestFusionEquivalence compiles every corpus program twice — with the
// superinstruction pass on and off — and requires identical verdicts
// from both. It also asserts the pass
// actually fires: a corpus-wide zero fusion count means the pattern
// matcher silently stopped matching the compiler's output shapes.
func TestFusionEquivalence(t *testing.T) {
	progs := corpus.Seeds()
	n := 40
	if testing.Short() {
		n = 10
	}
	progs = append(progs, corpus.Generate(corpus.Config{N: n, Seed: 11})...)
	fusedOps := 0
	for i, src := range progs {
		prog := cc.MustAnalyze(src)
		fused := compileProgram(prog, nil)
		plain := compileProgramOpt(prog, nil, true)
		fusedOps += countSuperOps(fused)
		if c := countSuperOps(plain); c != 0 {
			t.Fatalf("file[%d]: noFuse compilation contains %d superinstructions", i, c)
		}
		a := newVMState().run(plain, Config{})
		b := newVMState().run(fused, Config{})
		if err := diff(a, b); err != nil {
			t.Errorf("file[%d]: fused verdict diverges from unfused: %v\n--- source ---\n%s", i, err, src)
		}
		if t.Failed() {
			break
		}
	}
	if fusedOps == 0 {
		t.Fatal("superinstruction pass fused nothing across the whole corpus")
	}
}

// TestFusionShapes pins each superinstruction pattern individually: a
// program built around one hot pair must fuse it, and the fused program
// must still agree with the tree-walker.
func TestFusionShapes(t *testing.T) {
	cases := []struct {
		name string
		op   uint8
		src  string
	}{
		{"scalar load + binop", opLoadVarBinop, `
int main() {
    int a = 3, b = 4;
    return a + b;
}`},
		{"const + binop", opConstBinop, `
int main() {
    int a = 3;
    return a * 7;
}`},
		// In `i < 5` the const+binop pair fuses first and consumes the
		// compare, so the branch shape needs a compare whose operands are
		// themselves fused pairs.
		{"compare + jz", opBinopJz, `
int main() {
    int i = 0, n = 3;
    while (i * i < n * n) { i = i + 1; }
    return i;
}`},
		{"const + store", opConstStore, `
int main() {
    int a;
    a = 41;
    return a + 1;
}`},
	}
	for _, tc := range cases {
		prog := cc.MustAnalyze(tc.src)
		p := compileProgram(prog, nil)
		found := false
		scan := func(fn *fnCode) {
			for i := range fn.code {
				if fn.code[i].op == tc.op {
					found = true
				}
			}
		}
		for _, fn := range p.fns {
			scan(fn)
		}
		scan(p.entry)
		if !found {
			t.Errorf("%s: expected superinstruction not emitted", tc.name)
		}
		tree := interp.Run(prog, interp.Config{})
		if err := diff(tree, newVMState().run(p, Config{})); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
