package refvm

import (
	"testing"

	"spe/internal/cc"
	"spe/internal/corpus"
	"spe/internal/interp"
)

// fuzzBudget is the step budget of FuzzOracleAgreement: past the
// non-termination checkpoint, so proofs are exercised, yet small enough
// that a looping input costs milliseconds.
const fuzzBudget = 4 * nonTermCheckpoint

// FuzzOracleAgreement checks the equivalence contract between Run and the
// tree interpreter (see diff) on arbitrary programs: every input that
// parses and analyzes must get the same verdict from both, except that a
// non-terminating verdict only needs a tree verdict that is not Defined.
// Seeded from the bundled corpus and the non-termination soundness table.
func FuzzOracleAgreement(f *testing.F) {
	for _, src := range corpus.Seeds() {
		f.Add(src)
	}
	for _, tc := range nonTermCases {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := cc.Parse(src)
		if err != nil {
			return
		}
		prog, err := cc.Analyze(file)
		if err != nil {
			return
		}
		tree := interp.Run(prog, interp.Config{MaxSteps: fuzzBudget})
		bc := Run(prog, Config{MaxSteps: fuzzBudget})
		if err := diff(tree, bc); err != nil {
			t.Fatalf("oracle divergence: %v\n--- source ---\n%s", err, src)
		}
	})
}
