package partition

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// rankProblems is a mix of hand-built and random instances exercising the
// ranker: the paper's Figure 7, scope-free Stirling shapes, and random
// multi-group problems like those in grgs_test.
func rankProblems(t *testing.T) []*Problem {
	t.Helper()
	ps := []*Problem{
		figure7(),
		{NumHoles: 0, GroupSizes: []int{}, Allowed: [][]int{}},
		{NumHoles: 1, GroupSizes: []int{3}, Allowed: [][]int{{0}}},
		{NumHoles: 6, GroupSizes: []int{3}, Allowed: [][]int{{0}, {0}, {0}, {0}, {0}, {0}}},
		{
			NumHoles:   7,
			GroupSizes: []int{2, 3, 1},
			Allowed:    [][]int{{0}, {0, 1}, {1}, {0, 1, 2}, {2}, {1, 2}, {0, 2}},
		},
	}
	rng := rand.New(rand.NewSource(20170612))
	for trial := 0; trial < 20; trial++ {
		numGroups := 1 + rng.Intn(3)
		sizes := make([]int, numGroups)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(3)
		}
		numHoles := 1 + rng.Intn(6)
		allowed := make([][]int, numHoles)
		for i := range allowed {
			for g := 0; g < numGroups; g++ {
				if rng.Intn(2) == 0 {
					allowed[i] = append(allowed[i], g)
				}
			}
			if len(allowed[i]) == 0 {
				allowed[i] = []int{rng.Intn(numGroups)}
			}
		}
		p := &Problem{NumHoles: numHoles, GroupSizes: sizes, Allowed: allowed}
		if p.Validate() != nil {
			continue
		}
		ps = append(ps, p)
	}
	return ps
}

// TestRankUnrankRoundTrip asserts Unrank(Rank(fill)) == fill and
// Rank(fill) == enumeration position for every canonical filling.
func TestRankUnrankRoundTrip(t *testing.T) {
	for pi, p := range rankProblems(t) {
		r := p.NewRanker()
		if got, want := r.Count(), p.CanonicalCount(); got.Cmp(want) != 0 {
			t.Errorf("problem %d: ranker count %s, want %s", pi, got, want)
			continue
		}
		pos := int64(0)
		p.EachCanonical(func(fill []VarRef) bool {
			rank, err := r.Rank(fill)
			if err != nil {
				t.Errorf("problem %d: rank(%v): %v", pi, fill, err)
				return false
			}
			if rank.Cmp(big.NewInt(pos)) != 0 {
				t.Errorf("problem %d: fill %v ranked %s, want %d", pi, fill, rank, pos)
				return false
			}
			back, err := r.Unrank(rank)
			if err != nil {
				t.Errorf("problem %d: unrank(%s): %v", pi, rank, err)
				return false
			}
			if FillKey(back) != FillKey(fill) {
				t.Errorf("problem %d: unrank(%d) = %v, want %v", pi, pos, back, fill)
				return false
			}
			pos++
			return true
		})
		// out-of-range ranks must error
		if _, err := r.Unrank(r.Count()); err == nil {
			t.Errorf("problem %d: unrank(count) did not error", pi)
		}
		if _, err := r.Unrank(big.NewInt(-1)); err == nil {
			t.Errorf("problem %d: unrank(-1) did not error", pi)
		}
	}
}

// TestRankRejectsNonCanonical asserts that fillings breaking the restricted
// growth property are rejected.
func TestRankRejectsNonCanonical(t *testing.T) {
	p := figure7()
	r := p.NewRanker()
	// index 1 of group 0 used before index 0: not a restricted growth string
	bad := []VarRef{{0, 1}, {0, 0}, {0, 0}, {0, 0}, {0, 0}}
	if _, err := r.Rank(bad); err == nil {
		t.Error("rank accepted a non-canonical filling")
	}
	if _, err := r.Rank([]VarRef{{0, 0}}); err == nil {
		t.Error("rank accepted a short filling")
	}
	// group 1 is not admissible at hole 0
	if _, err := r.Rank([]VarRef{{1, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}}); err == nil {
		t.Error("rank accepted an inadmissible group")
	}
}

// TestShardConcatenation asserts that concatenating K contiguous shard
// enumerations (each started with Skip at its offset) reproduces
// EachCanonical's exact sequence and CanonicalCount total.
func TestShardConcatenation(t *testing.T) {
	for pi, p := range rankProblems(t) {
		var want []string
		p.EachCanonical(func(fill []VarRef) bool {
			want = append(want, FillKey(fill))
			return true
		})
		total := p.CanonicalCount()
		if total.Cmp(big.NewInt(int64(len(want)))) != 0 {
			t.Fatalf("problem %d: canonical count %s but enumerated %d", pi, total, len(want))
		}
		for _, shards := range []int{1, 2, 3, 7} {
			var got []string
			for k := 0; k < shards; k++ {
				lo := int64(k) * int64(len(want)) / int64(shards)
				hi := int64(k+1) * int64(len(want)) / int64(shards)
				n := hi - lo
				if n == 0 {
					continue
				}
				yielded := p.Skip(big.NewInt(lo), func(fill []VarRef) bool {
					got = append(got, FillKey(fill))
					n--
					return n > 0
				})
				if int64(yielded) != hi-lo {
					t.Fatalf("problem %d: shard %d/%d yielded %d, want %d", pi, k, shards, yielded, hi-lo)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("problem %d: %d shards yielded %d fills, want %d", pi, shards, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("problem %d: %d shards diverge at position %d", pi, shards, i)
				}
			}
		}
		// skipping everything yields nothing
		if n := p.Skip(total, func([]VarRef) bool { return true }); n != 0 {
			t.Errorf("problem %d: skip(count) yielded %d fills", pi, n)
		}
	}
}

// rankerPass is one goroutine's view of a shared Ranker: every canonical
// filling's rank and unranked key, and the fillings EachFrom yields from a
// few offsets, all concatenated so passes compare with one string check.
func rankerPass(p *Problem, r *Ranker) (string, error) {
	var b strings.Builder
	var err error
	p.EachCanonical(func(fill []VarRef) bool {
		var rank *big.Int
		if rank, err = r.Rank(fill); err != nil {
			return false
		}
		var back []VarRef
		if back, err = r.Unrank(rank); err != nil {
			return false
		}
		fmt.Fprintf(&b, "%s=%s;", rank, FillKey(back))
		return true
	})
	if err != nil {
		return "", err
	}
	total := r.Count()
	for _, off := range []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Rsh(total, 1)} {
		b.WriteString("|")
		n := 0
		r.EachFrom(off, func(fill []VarRef) bool {
			b.WriteString(FillKey(fill))
			n++
			return n < 5
		})
	}
	return b.String(), nil
}

// TestRankerConcurrentUse shares one Ranker per problem across goroutines
// (run under -race in CI): its table is filled at construction, so Rank,
// Unrank and EachFrom only read it, and every goroutine must see exactly
// what a single-goroutine pass sees.
func TestRankerConcurrentUse(t *testing.T) {
	const goroutines = 8
	for pi, p := range rankProblems(t) {
		want, err := rankerPass(p, p.NewRanker())
		if err != nil {
			t.Fatalf("problem %d: %v", pi, err)
		}
		shared := p.NewRanker()
		got := make([]string, goroutines)
		errs := make([]error, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got[g], errs[g] = rankerPass(p, shared)
			}(g)
		}
		wg.Wait()
		for g := range got {
			if errs[g] != nil {
				t.Fatalf("problem %d goroutine %d: %v", pi, g, errs[g])
			}
			if got[g] != want {
				t.Fatalf("problem %d goroutine %d: shared ranker diverges from a single-goroutine pass", pi, g)
			}
		}
	}
}
