package partition

import (
	"fmt"
	"math/big"
)

// Ranker indexes the canonical enumeration order of a Problem: it maps any
// canonical filling to its 0-based position in EachCanonical's sequence
// (Rank), maps a position back to its filling (Unrank), and enumerates the
// sequence from an arbitrary offset (EachFrom). Together these let the
// canonical variant space be cut into contiguous shards that independent
// workers enumerate without coordination.
//
// The machinery is the counting side of the paper's Algorithm 1 turned into
// a positional number system: the number of canonical completions of a
// suffix of holes depends only on the per-group used-variable counts, so a
// suffix-count table plays the role the Stirling/product arithmetic plays
// in CanonicalCount, and ranking is digit extraction against those counts.
//
// NewRanker fills the table for every profile a canonical prefix can reach,
// and nothing writes to it afterwards, so one Ranker is safe to share
// across goroutines: Rank, Unrank, EachFrom and Count only read it. All
// big.Int values returned by suffix counting are shared with the table and
// must not be mutated by callers.
type Ranker struct {
	p *Problem
	// memo[i][usedKey] is the number of canonical completions of holes
	// i..n-1 under the used-variable profile encoded by usedKey.
	memo []map[string]*big.Int
}

// NewRanker validates the problem and fills the suffix-count table, the
// same backward DP Count would run; the Ranker is read-only afterwards.
func (p *Problem) NewRanker() *Ranker {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	r := &Ranker{p: p, memo: make([]map[string]*big.Int, p.NumHoles+1)}
	r.fill(0, make([]int, len(p.GroupSizes)), r.memo)
	return r
}

var rankOne = big.NewInt(1)

func usedKey(used []int) string {
	b := make([]byte, len(used))
	for i, u := range used {
		b[i] = byte(u)
	}
	return string(b)
}

// suffix returns the number of canonical completions of holes i..n-1 given
// the used profile. The result aliases the table; do not mutate. Every
// profile the ranking walks query is reachable from the empty prefix, so
// the table has it; a profile it lacks is counted into a throwaway table
// instead, leaving the shared one untouched.
func (r *Ranker) suffix(i int, used []int) *big.Int {
	if i == r.p.NumHoles {
		return rankOne
	}
	// the string conversion inside the index expression does not allocate
	var buf [16]byte
	b := buf[:0]
	for _, u := range used {
		b = append(b, byte(u))
	}
	if v, ok := r.memo[i][string(b)]; ok {
		return v
	}
	return r.fill(i, used, make([]map[string]*big.Int, r.p.NumHoles+1))
}

// fill counts the canonical completions of holes i..n-1 under the used
// profile, memoizing every reachable (hole, profile) state in memo.
func (r *Ranker) fill(i int, used []int, memo []map[string]*big.Int) *big.Int {
	if i == r.p.NumHoles {
		return rankOne
	}
	if memo[i] == nil {
		memo[i] = make(map[string]*big.Int)
	}
	k := usedKey(used)
	if v, ok := memo[i][k]; ok {
		return v
	}
	total := new(big.Int)
	var tmp big.Int
	for _, g := range r.p.Allowed[i] {
		if used[g] > 0 {
			tmp.SetInt64(int64(used[g]))
			tmp.Mul(&tmp, r.fill(i+1, used, memo))
			total.Add(total, &tmp)
		}
		if used[g] < r.p.GroupSizes[g] {
			used[g]++
			total.Add(total, r.fill(i+1, used, memo))
			used[g]--
		}
	}
	memo[i][k] = total
	return total
}

// Count returns the size of the canonical enumeration, computed through the
// suffix-count table (equal to CanonicalCount; the DP there runs forward,
// this one backward).
func (r *Ranker) Count() *big.Int {
	return new(big.Int).Set(r.suffix(0, make([]int, len(r.p.GroupSizes))))
}

// Rank returns the 0-based position of the canonical filling in
// EachCanonical's order. It errors if fill is not a canonical filling of
// the problem (wrong length, inadmissible group, or a member index that
// breaks the restricted-growth property).
func (r *Ranker) Rank(fill []VarRef) (*big.Int, error) {
	p := r.p
	if len(fill) != p.NumHoles {
		return nil, fmt.Errorf("partition: rank: fill length %d, want %d", len(fill), p.NumHoles)
	}
	used := make([]int, len(p.GroupSizes))
	rank := new(big.Int)
	var tmp big.Int
	for i, vr := range fill {
		admissible := false
		for _, g := range p.Allowed[i] {
			if g == vr.Group {
				admissible = true
				break
			}
		}
		if !admissible {
			return nil, fmt.Errorf("partition: rank: hole %d filled from inadmissible group %d", i, vr.Group)
		}
		if vr.Index < 0 || vr.Index > used[vr.Group] || vr.Index >= p.GroupSizes[vr.Group] {
			return nil, fmt.Errorf("partition: rank: hole %d index %d breaks restricted growth (used %d of %d)",
				i, vr.Index, used[vr.Group], p.GroupSizes[vr.Group])
		}
		// count the choices enumerated before (vr.Group, vr.Index) at this
		// hole: whole earlier groups, then earlier members of vr.Group
		for _, g := range p.Allowed[i] {
			if g == vr.Group {
				break
			}
			if used[g] > 0 {
				tmp.SetInt64(int64(used[g]))
				tmp.Mul(&tmp, r.suffix(i+1, used))
				rank.Add(rank, &tmp)
			}
			if used[g] < p.GroupSizes[g] {
				used[g]++
				rank.Add(rank, r.suffix(i+1, used))
				used[g]--
			}
		}
		if vr.Index > 0 {
			tmp.SetInt64(int64(vr.Index))
			tmp.Mul(&tmp, r.suffix(i+1, used))
			rank.Add(rank, &tmp)
		}
		if vr.Index == used[vr.Group] {
			used[vr.Group]++
		}
	}
	return rank, nil
}

// Unrank returns the canonical filling at 0-based position rank in
// EachCanonical's order, or an error if rank is outside [0, Count).
func (r *Ranker) Unrank(rank *big.Int) ([]VarRef, error) {
	p := r.p
	if rank.Sign() < 0 {
		return nil, fmt.Errorf("partition: unrank: negative rank %s", rank)
	}
	if rank.Cmp(r.suffix(0, make([]int, len(p.GroupSizes)))) >= 0 {
		return nil, fmt.Errorf("partition: unrank: rank %s out of range [0, %s)", rank, r.Count())
	}
	rem := new(big.Int).Set(rank)
	used := make([]int, len(p.GroupSizes))
	fill := make([]VarRef, p.NumHoles)
	var tmp big.Int
	for i := 0; i < p.NumHoles; i++ {
		chosen := false
		for _, g := range p.Allowed[i] {
			// old members of g: used[g] equally-sized subtrees
			if used[g] > 0 {
				sub := r.suffix(i+1, used)
				tmp.SetInt64(int64(used[g]))
				tmp.Mul(&tmp, sub)
				if rem.Cmp(&tmp) < 0 {
					q, m := new(big.Int).QuoRem(rem, sub, new(big.Int))
					fill[i] = VarRef{Group: g, Index: int(q.Int64())}
					rem.Set(m)
					chosen = true
					break
				}
				rem.Sub(rem, &tmp)
			}
			// the fresh member of g
			if used[g] < p.GroupSizes[g] {
				used[g]++
				sub := r.suffix(i+1, used)
				if rem.Cmp(sub) < 0 {
					fill[i] = VarRef{Group: g, Index: used[g] - 1}
					chosen = true
					break
				}
				rem.Sub(rem, sub)
				used[g]--
			}
		}
		if !chosen {
			return nil, fmt.Errorf("partition: unrank: rank %s out of range [0, %s)", rank, r.Count())
		}
	}
	return fill, nil
}

// EachFrom enumerates canonical fillings starting at 0-based position
// offset, in the exact order and with the exact yield semantics of
// EachCanonical (the fill slice is reused; copy to retain). It descends the
// enumeration tree subtracting whole-subtree counts until the offset is
// consumed, so reaching the first filling costs O(holes × choices) suffix
// counts rather than offset enumeration steps. Returns the number of
// fillings yielded.
func (r *Ranker) EachFrom(offset *big.Int, yield func(fill []VarRef) bool) int {
	p := r.p
	skip := new(big.Int).Set(offset)
	if skip.Sign() < 0 {
		skip.SetInt64(0)
	}
	fill := make([]VarRef, p.NumHoles)
	used := make([]int, len(p.GroupSizes))
	count := 0
	var tmp big.Int
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == p.NumHoles {
			if skip.Sign() > 0 {
				// cannot happen: skip is consumed against subtree counts
				// before descending to a leaf
				skip.Sub(skip, rankOne)
				return true
			}
			count++
			return yield(fill)
		}
		skipping := skip.Sign() > 0
		for _, g := range p.Allowed[i] {
			limit := used[g]
			if skipping && limit > 0 {
				// drop whole old-member subtrees while the offset allows
				if sub := r.suffix(i+1, used); sub.Sign() > 0 {
					tmp.SetInt64(int64(limit))
					tmp.Mul(&tmp, sub)
					if skip.Cmp(&tmp) >= 0 {
						skip.Sub(skip, &tmp)
						limit = 0
					} else {
						q, m := new(big.Int).QuoRem(skip, sub, new(big.Int))
						first := int(q.Int64())
						skip.Set(m)
						for idx := first; idx < used[g]; idx++ {
							fill[i] = VarRef{Group: g, Index: idx}
							if !rec(i + 1) {
								return false
							}
						}
						limit = 0
						skipping = skip.Sign() > 0
					}
				}
			}
			for idx := 0; idx < limit; idx++ {
				fill[i] = VarRef{Group: g, Index: idx}
				if !rec(i + 1) {
					return false
				}
			}
			if used[g] < p.GroupSizes[g] {
				used[g]++
				drop := false
				if skipping {
					sub := r.suffix(i+1, used)
					if skip.Cmp(sub) >= 0 {
						skip.Sub(skip, sub)
						drop = true
					}
				}
				if !drop {
					fill[i] = VarRef{Group: g, Index: used[g] - 1}
					ok := rec(i + 1)
					skipping = skip.Sign() > 0
					used[g]--
					if !ok {
						return false
					}
				} else {
					used[g]--
				}
			}
		}
		return true
	}
	rec(0)
	return count
}

// Skip enumerates the canonical sequence with the first offset fillings
// skipped — EachCanonical with a fast-forwarded start. Yield semantics
// match EachCanonical. Returns the number of fillings yielded.
func (p *Problem) Skip(offset *big.Int, yield func(fill []VarRef) bool) int {
	return p.NewRanker().EachFrom(offset, yield)
}
