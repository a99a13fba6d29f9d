package refvm

import (
	"testing"

	"spe/internal/cc"
	"spe/internal/interp"
)

// nonTermBudget is the campaign's oracle step budget.
const nonTermBudget = 500_000

// nonTermCases is the soundness table of the non-termination proof.
// Positive rows loop forever without progress: the bytecode oracle must
// prove it well under the budget, and the tree interpreter's full-budget
// run must not be Defined. Negative rows are loops the proof must not
// cut short — most of them terminate, after the checkpoint, in a way a
// weaker analysis would miss — so the bytecode result must equal the
// tree's exactly (diff: Steps included for defined runs).
var nonTermCases = []struct {
	name    string
	nonTerm bool
	src     string
}{
	{"guard never written", true, `
int main() {
	int i;
	int n = 0;
	for (i = 0; n < 2; i++) {
	}
	return i;
}`},
	{"guard never written, goto loop", true, `
int main() {
	int a = 0;
	int b = 0;
l1:
	a = a + 1;
	if (b < 3) goto l1;
	return a;
}`},
	{"global guard never written", true, `
int n;
int main() {
	int s = 0;
	while (n < 2) {
		s = s + 1;
		printf("");
	}
	return s;
}`},
	{"guard value repeats", true, `
int main() {
	int g = 0;
	int z = 0;
	int k = 0;
	while (g < 10) {
		g += z;
		k++;
	}
	return k;
}`},
	{"pointer pair repeats", true, `
int main() {
	int a[4] = {0, 0, 0, 0};
	int *p = a;
	int *q = a + 3;
	int s = 0;
	while (p < q) {
		s += *q;
		q = p + 1;
	}
	return s;
}`},
	{"NaN guard repeats", true, `
int main() {
	double z = 0.0;
	double g = z / z;
	while (g != g) {
		g = g * 2.0;
	}
	return 0;
}`},
	{"guard computed from a counter", false, `
int main() {
	int g = 0;
	int t = 0;
	while (g < 1) {
		t++;
		g = t / 3000;
	}
	return t;
}`},
	{"guard written through a pointer", false, `
int main() {
	int g = 0;
	int t = 0;
	int *p = &g;
	while (g < 1) {
		t++;
		*p = t / 3000;
	}
	return t;
}`},
	{"guard written through a pointer, forever", false, `
int main() {
	int g = 0;
	int *p = &g;
	while (g < 1) {
		*p = 0;
	}
	return 0;
}`},
	{"guard read through a pointer", false, `
int main() {
	int x = 0;
	int t = 0;
	int *p = &x;
	while (*p < 1) {
		t++;
		*p = t / 3000;
	}
	return t;
}`},
	{"guard is printf's byte count", false, `
int main() {
	int t = 0;
	while (printf("%d", t / 3000) < 2) {
		t++;
	}
	return t;
}`},
	{"guard written in a callee", false, `
int g = 0;
int t = 0;
void bump() {
	t++;
	g = t / 3000;
}
int main() {
	while (g < 1) {
		bump();
	}
	return t;
}`},
	{"guard written on a counter-selected path", false, `
int main() {
	int n = 0;
	int c = 0;
	while (n < 1) {
		c++;
		if (c == 3000) n = 1;
	}
	return c;
}`},
	{"exit inside the loop", false, `
int main() {
	int n = 0;
	int c = 0;
	while (n < 1) {
		c++;
		if (c == 3000) exit(3);
	}
	return 0;
}`},
	{"abort inside the loop", false, `
int main() {
	int n = 0;
	int c = 0;
	while (n < 1) {
		c++;
		if (c == 3000) abort();
	}
	return 0;
}`},
	{"NaN guard", false, `
int main() {
	double z = 0.0;
	double g = z / z;
	int c = 0;
	while (g != g) {
		c++;
		if (c == 3000) g = 1.0;
	}
	return c;
}`},
	{"guard declared inside the loop body", false, `
int main() {
	int c = 0;
	for (;;) {
		int g = c / 3000;
		c++;
		if (g > 0) break;
	}
	return c;
}`},
	{"counter read by a branch", false, `
int main() {
	int i = 0;
	int n = 0;
	do {
		i++;
		if (i == 3) continue;
		if (n > 7) break;
	} while (n < 10);
	return i;
}`},
}

// TestNonTermSoundness runs the soundness table through Run and through
// a Cache, checking the verdict and the cache's verdict counters.
func TestNonTermSoundness(t *testing.T) {
	for _, tc := range nonTermCases {
		t.Run(tc.name, func(t *testing.T) {
			prog := cc.MustAnalyze(tc.src)
			tree := interp.Run(prog, interp.Config{MaxSteps: nonTermBudget})
			for _, via := range []string{"Run", "Cache"} {
				var bc *interp.Result
				ca := NewCache()
				if via == "Run" {
					bc = Run(prog, Config{MaxSteps: nonTermBudget})
				} else {
					bc = ca.Run(prog, nil, Config{MaxSteps: nonTermBudget})
				}
				proved := bc.Limit != nil && bc.Limit.NonTerm
				if proved != tc.nonTerm {
					t.Fatalf("%s: proved non-termination %v, want %v (bytecode %+v, tree %+v)", via, proved, tc.nonTerm, bc, tree)
				}
				if err := diff(tree, bc); err != nil {
					t.Fatalf("%s: %v", via, err)
				}
				if tc.nonTerm && bc.Steps > 2*nonTermCheckpoint {
					t.Fatalf("%s: proof took %d steps, checkpoint %d", via, bc.Steps, nonTermCheckpoint)
				}
				if via == "Cache" {
					want := CacheStats{TemplateCompiles: 1, PatchRuns: 1}
					switch {
					case tc.nonTerm:
						want.NonTermRuns = 1
					case tree.Limit != nil:
						want.BudgetRuns = 1
					}
					if st := ca.Stats(); st != want {
						t.Fatalf("stats %+v, want %+v", st, want)
					}
				}
			}
		})
	}
}

// TestNonTermBelowBudget pins that a budget at or below the checkpoint
// never arms the proof: the run is exactly the budgeted one.
func TestNonTermBelowBudget(t *testing.T) {
	prog := cc.MustAnalyze(nonTermCases[0].src)
	for _, budget := range []int64{nonTermCheckpoint / 2, nonTermCheckpoint} {
		bc := Run(prog, Config{MaxSteps: budget})
		if bc.Limit == nil || bc.Limit.NonTerm || bc.Steps <= budget {
			t.Fatalf("budget %d: got %+v, want the budget verdict", budget, bc)
		}
	}
}
