package refvm

import (
	"fmt"
	"math/big"
	"testing"

	"spe/internal/cc"
	"spe/internal/corpus"
	"spe/internal/interp"
	"spe/internal/skeleton"
	"spe/internal/spe"
)

// diff compares a bytecode result against the tree-walking oracle's on
// the structured verdict surface the campaign consumes: output bytes,
// exit status, abort flag, UB kind+position, limit presence, and — for
// defined runs — the step count (the campaign derives the compiled
// binary's execution budget from it). The one exception is a
// non-terminating verdict, which the tree interpreter never returns: it
// is accepted exactly when the tree's full-budget result is not Defined.
func diff(tree, bc *interp.Result) error {
	if bc.Limit != nil && bc.Limit.NonTerm {
		if tree.Defined() {
			return fmt.Errorf("bytecode proved non-termination (%v), tree run is defined (exit %d, %d steps)",
				bc.Limit, tree.Exit, tree.Steps)
		}
		return nil
	}
	if (tree.UB == nil) != (bc.UB == nil) {
		return fmt.Errorf("UB presence: tree %v, bytecode %v", tree.UB, bc.UB)
	}
	if tree.UB != nil {
		if tree.UB.Kind != bc.UB.Kind || tree.UB.Pos != bc.UB.Pos {
			return fmt.Errorf("UB verdict: tree %v at %v, bytecode %v at %v",
				tree.UB.Kind, tree.UB.Pos, bc.UB.Kind, bc.UB.Pos)
		}
		return nil
	}
	if (tree.Limit == nil) != (bc.Limit == nil) {
		return fmt.Errorf("limit presence: tree %v, bytecode %v", tree.Limit, bc.Limit)
	}
	if tree.Limit != nil {
		return nil
	}
	if tree.Aborted != bc.Aborted {
		return fmt.Errorf("aborted: tree %v, bytecode %v", tree.Aborted, bc.Aborted)
	}
	if tree.Exit != bc.Exit {
		return fmt.Errorf("exit: tree %d, bytecode %d", tree.Exit, bc.Exit)
	}
	if tree.Output != bc.Output {
		return fmt.Errorf("output: tree %q, bytecode %q", tree.Output, bc.Output)
	}
	if tree.Steps != bc.Steps {
		return fmt.Errorf("steps: tree %d, bytecode %d", tree.Steps, bc.Steps)
	}
	return nil
}

func checkProgram(t *testing.T, label, src string) {
	t.Helper()
	file, err := cc.Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", label, err)
	}
	prog, err := cc.Analyze(file)
	if err != nil {
		t.Fatalf("%s: analyze: %v", label, err)
	}
	tree := interp.Run(prog, interp.Config{})
	bc := Run(prog, Config{})
	if err := diff(tree, bc); err != nil {
		t.Errorf("%s: oracle divergence: %v\n--- source ---\n%s", label, err, src)
	}
}

// TestDifferentialCorpus sweeps the bundled seed corpus plus a generated
// population through both oracles.
func TestDifferentialCorpus(t *testing.T) {
	for i, src := range corpus.Seeds() {
		checkProgram(t, fmt.Sprintf("seed[%d]", i), src)
	}
	n := 120
	if testing.Short() {
		n = 30
	}
	for i, src := range corpus.Generate(corpus.Config{N: n, Seed: 20170618}) {
		checkProgram(t, fmt.Sprintf("gen[%d]", i), src)
	}
}

// TestDifferentialVariants drives the cached, hole-patched path: for each
// corpus file, enumerate variants through the skeleton machinery (exactly
// like a campaign worker) and compare the pooled bytecode oracle against
// the tree-walking one per variant. This is the corpus-wide equivalence
// sweep of the oracle templating discipline itself.
func TestDifferentialVariants(t *testing.T) {
	progs := corpus.Seeds()
	gen := 25
	maxVariants := int64(40)
	if testing.Short() {
		gen, maxVariants = 8, 15
	}
	progs = append(progs, corpus.Generate(corpus.Config{N: gen, Seed: 7})...)

	cache := NewCache() // shared across files, like a campaign worker's
	mach := interp.NewMachine()
	for fi, src := range progs {
		file, err := cc.Parse(src)
		if err != nil {
			t.Fatalf("file[%d]: parse: %v", fi, err)
		}
		prog, err := cc.Analyze(file)
		if err != nil {
			t.Fatalf("file[%d]: analyze: %v", fi, err)
		}
		sk, err := skeleton.Build(prog)
		if err != nil {
			t.Fatalf("file[%d]: skeleton: %v", fi, err)
		}
		space, err := spe.NewSpace(sk, spe.Options{Mode: spe.ModeCanonical})
		if err != nil {
			t.Fatalf("file[%d]: space: %v", fi, err)
		}
		total := space.Total()
		n := maxVariants
		if total.IsInt64() && total.Int64() < n {
			n = total.Int64()
		}
		idx := new(big.Int)
		for j := int64(0); j < n; j++ {
			idx.SetInt64(j)
			in, release, err := space.AcquireAt(idx)
			if err != nil {
				t.Fatalf("file[%d] variant %d: %v", fi, j, err)
			}
			vprog := in.Program()
			tree := mach.Run(vprog, interp.Config{})
			bc := cache.Run(vprog, in.HoleIdents(), Config{})
			if err := diff(tree, bc); err != nil {
				t.Errorf("file[%d] variant %d: oracle divergence: %v\n--- source ---\n%s",
					fi, j, err, cc.PrintFile(vprog.File))
				release()
				break
			}
			release()
		}
		if t.Failed() {
			break
		}
	}
}
