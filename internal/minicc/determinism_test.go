package minicc

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"spe/internal/corpus"
)

// compileFingerprint renders everything one seeded compile-and-run
// produces that must not vary between compiles of the same program: the
// failure kind, or every function's optimized IR plus the execution's
// step count, exit status and output.
func compileFingerprint(c *Compiler, ro *RunOutcome) string {
	out := ro.Compile
	switch {
	case out.Crash != nil:
		return "crash: " + out.Crash.Signature
	case out.Timeout != nil:
		return "timeout: " + out.Timeout.Pass
	case out.Err != nil:
		return "error: " + out.Err.Error()
	}
	names := make([]string, 0, len(out.Program.Funcs))
	for name := range out.Program.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		sb.WriteString(out.Program.Funcs[name].String())
	}
	ex := ro.Exec
	fmt.Fprintf(&sb, "steps %d exit %d trap %q timeout %v output %q", ex.Steps, ex.Exit, ex.Trap, ex.Timeout, ex.Output)
	return sb.String()
}

// TestCompileDeterministic compiles every seed and generated corpus file
// at every version and -O level several times: the optimized IR and the
// execution's step count must be identical each time (the campaign sizes
// budgets and compares cached against cold runs by these).
func TestCompileDeterministic(t *testing.T) {
	n, reps := 60, 4
	if testing.Short() {
		n, reps = 20, 3
	}
	progs := append(corpus.Seeds(), corpus.Generate(corpus.Config{N: n, Seed: 20170621})...)
	for i, src := range progs {
		prog := analyzeT(t, src)
		for _, ver := range Versions {
			for _, opt := range OptLevels {
				c := &Compiler{Version: ver, Opt: opt, Seeded: true}
				want := compileFingerprint(c, c.Run(prog, ExecConfig{MaxSteps: 100_000}))
				for r := 1; r < reps; r++ {
					if got := compileFingerprint(c, c.Run(prog, ExecConfig{MaxSteps: 100_000})); got != want {
						t.Fatalf("corpus[%d] %s: compile %d differs from the first:\n--- first ---\n%s\n--- compile %d ---\n%s",
							i, c, r, want, r, got)
					}
				}
			}
		}
	}
}
