package spe

import (
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"

	"spe/internal/cc"
	"spe/internal/partition"
	"spe/internal/skeleton"
)

// Space is a random-access view of a skeleton's canonical enumeration
// sequence: Total() is its size and FillAt(i) returns the i-th filling of
// EnumerateFills' order without enumerating the i-1 before it. With intra-
// procedural granularity the sequence is the Cartesian product of the
// per-function canonical sequences, so a global index is a mixed-radix
// numeral whose digits are per-function ranks (the first function is the
// most significant digit, matching EnumerateFills' recursion order).
//
// Beside the textual RenderAt, a Space serves typed programs: ProgramAt
// patches a pooled AST-resident skeleton.Instance to the indexed filling
// and hands back the analyzed *cc.Program directly, skipping the
// render→re-lex→re-parse→re-sema cycle entirely. FillDeltaAt exposes the
// underlying incremental unranking (per-function rank digits are cached, so
// stride-neighbor indices only unrank the functions whose digit moved).
//
// Concurrency contract: a Space owns mutable state — the delta-unranking
// cache and its instance free list — and is strictly single-goroutine. Its
// counting tables (the per-function rankers and counts) are read-only and
// may be shared: a Pool builds them once per skeleton and hands each
// goroutine a private Space over them. Sharing one Space across goroutines
// is a data race, enforced by the race-detector tests over the campaign
// hot path.
type Space struct {
	sk *skeleton.Skeleton
	*tables

	// delta-unranking cache: the per-function rank digits and whole-skeleton
	// filling of the last FillDeltaAt call. prevBuf and changed are reused
	// scratch space so the per-variant hot path stays allocation-free.
	lastDigits []*big.Int
	lastFill   []partition.VarRef
	prevBuf    []partition.VarRef
	changed    []int

	// instances is a LIFO free list for ProgramAt: releasing and
	// re-acquiring yields the same instance, so consecutive ProgramAt calls
	// patch only the holes that differ between neighboring fillings.
	instances []*skeleton.Instance
	// CheckedRebind makes every instance patch assert the sema invariants
	// (visibility, type compatibility) before applying — the spe half of
	// the campaign engine's -paranoid mode.
	CheckedRebind bool
}

// tables is a skeleton's counting state for random access: the rankers'
// suffix-count tables and the per-function counts that are the digits of
// the mixed-radix index. It is immutable once built, so any number of
// Spaces may read one concurrently.
type tables struct {
	// intra granularity
	fps     []*skeleton.FuncProblem
	rankers []*partition.Ranker
	counts  []*big.Int
	// inter granularity
	ranker *partition.Ranker

	total *big.Int
}

func newTables(sk *skeleton.Skeleton, gran Granularity) *tables {
	t := &tables{}
	switch gran {
	case Inter:
		t.ranker = sk.Problem().NewRanker()
		t.total = t.ranker.Count()
	default:
		t.fps = sk.FuncProblems()
		t.total = big.NewInt(1)
		for _, fp := range t.fps {
			r := fp.Problem.NewRanker()
			t.rankers = append(t.rankers, r)
			c := r.Count()
			t.counts = append(t.counts, c)
			t.total.Mul(t.total, c)
		}
	}
	return t
}

// checkOptions rejects the modes a Space cannot serve. Only ModeCanonical
// is supported: the naive sequence needs no ranker (it is a plain
// mixed-radix product) and ModePaper is count-only.
func checkOptions(opts Options) error {
	if opts.Mode != ModeCanonical {
		return fmt.Errorf("spe: Space requires ModeCanonical, got %v", opts.Mode)
	}
	return nil
}

// NewSpace builds the random-access view over its own counting tables.
func NewSpace(sk *skeleton.Skeleton, opts Options) (*Space, error) {
	if err := checkOptions(opts); err != nil {
		return nil, err
	}
	return &Space{sk: sk, tables: newTables(sk, opts.Granularity)}, nil
}

// Total returns the number of fillings in the sequence (the skeleton's
// canonical count).
func (s *Space) Total() *big.Int { return new(big.Int).Set(s.total) }

// FillAt returns the idx-th whole-skeleton filling of the canonical
// enumeration order. The returned slice is freshly allocated.
func (s *Space) FillAt(idx *big.Int) ([]partition.VarRef, error) {
	if idx.Sign() < 0 || idx.Cmp(s.total) >= 0 {
		return nil, fmt.Errorf("spe: fill index %s out of range [0, %s)", idx, s.total)
	}
	if s.ranker != nil {
		return s.ranker.Unrank(idx)
	}
	// digit extraction, least significant (= last, fastest-varying
	// function) first
	digits := make([]*big.Int, len(s.fps))
	rem := new(big.Int).Set(idx)
	for i := len(s.fps) - 1; i >= 0; i-- {
		q, m := new(big.Int).QuoRem(rem, s.counts[i], new(big.Int))
		digits[i] = m
		rem = q
	}
	whole := s.sk.OriginalFill()
	for i, fp := range s.fps {
		fill, err := s.rankers[i].Unrank(digits[i])
		if err != nil {
			return nil, err
		}
		for j, vr := range fill {
			whole[fp.HoleIdx[j]] = partition.VarRef{
				Group: fp.GroupIdx[vr.Group],
				Index: vr.Index,
			}
		}
	}
	return whole, nil
}

// FillDeltaAt is FillAt with incremental unranking: the Space caches the
// per-function rank digits of its previous call and re-unranks only the
// functions whose digit changed, which is what makes walking stride
// neighbors within a shard cheap (the low-order functions vary, the rest
// stand still). It returns the filling plus the sorted hole indices whose
// variable differs from the previous call's filling (all holes on the first
// call). Both slices are owned by the Space and valid until the next
// FillDeltaAt call.
func (s *Space) FillDeltaAt(idx *big.Int) ([]partition.VarRef, []int, error) {
	if idx.Sign() < 0 || idx.Cmp(s.total) >= 0 {
		return nil, nil, fmt.Errorf("spe: fill index %s out of range [0, %s)", idx, s.total)
	}
	if s.lastFill == nil {
		// first call: unrank everything, every hole counts as changed
		fill, err := s.FillAt(idx)
		if err != nil {
			return nil, nil, err
		}
		s.lastFill = fill
		s.changed = make([]int, len(fill))
		for i := range s.changed {
			s.changed[i] = i
		}
		if s.ranker == nil {
			s.lastDigits = s.digitsOf(idx)
		}
		return s.lastFill, s.changed, nil
	}
	prev := append(s.prevBuf[:0], s.lastFill...)
	s.prevBuf = prev
	if s.ranker != nil {
		fill, err := s.ranker.Unrank(idx)
		if err != nil {
			return nil, nil, err
		}
		s.lastFill = fill
	} else {
		digits := s.digitsOf(idx)
		for i, fp := range s.fps {
			if digits[i].Cmp(s.lastDigits[i]) == 0 {
				continue // this function's rank did not move: keep its holes
			}
			fill, err := s.rankers[i].Unrank(digits[i])
			if err != nil {
				return nil, nil, err
			}
			for j, vr := range fill {
				s.lastFill[fp.HoleIdx[j]] = partition.VarRef{
					Group: fp.GroupIdx[vr.Group],
					Index: vr.Index,
				}
			}
		}
		s.lastDigits = digits
	}
	s.changed = s.changed[:0]
	for i, vr := range s.lastFill {
		if vr != prev[i] {
			s.changed = append(s.changed, i)
		}
	}
	return s.lastFill, s.changed, nil
}

// digitsOf extracts idx's per-function mixed-radix rank digits.
func (s *Space) digitsOf(idx *big.Int) []*big.Int {
	digits := make([]*big.Int, len(s.fps))
	rem := new(big.Int).Set(idx)
	for i := len(s.fps) - 1; i >= 0; i-- {
		q, m := new(big.Int).QuoRem(rem, s.counts[i], new(big.Int))
		digits[i] = m
		rem = q
	}
	return digits
}

// RenderAt renders the program at the given enumeration index. This is the
// textual (render) path; the campaign hot path uses ProgramAt instead and
// renders lazily only when a finding needs reproduction text.
func (s *Space) RenderAt(idx *big.Int) (string, error) {
	fill, err := s.FillAt(idx)
	if err != nil {
		return "", err
	}
	return s.sk.Render(fill), nil
}

// ProgramAt returns the analyzed program at the given enumeration index by
// patching a pooled AST-resident instance — no lexing, parsing, or semantic
// analysis happens per variant. The program is valid until release is
// called; release returns the instance to the Space's free list, where the
// next ProgramAt call reuses it (and, for neighboring indices, patches only
// the holes that moved). Printing the program with cc.PrintFile yields
// exactly RenderAt's bytes.
func (s *Space) ProgramAt(idx *big.Int) (*cc.Program, func(), error) {
	in, release, err := s.AcquireAt(idx)
	if err != nil {
		return nil, nil, err
	}
	return in.Program(), release, nil
}

// AcquireAt is ProgramAt exposing the instance itself: callers that key
// per-skeleton backend state (the campaign's interpreter machines and
// compiler IR-template caches) need the instance's hole→use-site metadata
// (Instance.HoleIdents) alongside the program. The instance is owned by the
// caller until release is called and must not be used after.
func (s *Space) AcquireAt(idx *big.Int) (*skeleton.Instance, func(), error) {
	fill, _, err := s.FillDeltaAt(idx)
	if err != nil {
		return nil, nil, err
	}
	var in *skeleton.Instance
	if n := len(s.instances); n > 0 {
		in = s.instances[n-1]
		s.instances = s.instances[:n-1]
	} else {
		in = s.sk.NewInstance()
	}
	in.Checked = s.CheckedRebind
	if err := in.Instantiate(fill); err != nil {
		return nil, nil, err
	}
	release := func() { s.instances = append(s.instances, in) }
	return in, release, nil
}

// Pool shares one skeleton's enumeration across goroutines by handing each
// caller a private Space. It is the enforced concurrency API over Space:
// Get/Put are safe from any goroutine, while everything on the Space itself
// remains single-goroutine between a Get and its Put.
//
// The pool builds the skeleton's counting tables once, on the first Get,
// and every Space it hands out reads those same tables; a Space keeps only
// its delta-unranking cache and its template instances private. Put parks
// a Space for reuse, so shard workers draining one file amortize the
// instances too. Release drops the tables and the parked Spaces once the
// caller knows no Get is coming soon; a later Get rebuilds them.
type Pool struct {
	sk   *skeleton.Skeleton
	gran Granularity
	// CheckedRebind is propagated to every Space the pool hands out.
	CheckedRebind bool

	mu   sync.Mutex
	tab  *tables
	free []*Space
	// hits/misses count Gets served by a parked Space versus a fresh one,
	// builds the table constructions — telemetry the campaign's /metrics
	// surface sums at scrape time (see Stats). One atomic add per Get, i.e.
	// per shard task.
	hits, misses, builds atomic.Int64
}

// Stats reports how many Gets were served by a parked Space (hits) versus
// allocating a fresh Space over the shared tables (misses), and how many
// times the tables were built. Purely observational.
func (p *Pool) Stats() (hits, misses, builds int64) {
	return p.hits.Load(), p.misses.Load(), p.builds.Load()
}

// NewPool validates the options and returns the pool. Nothing is counted
// until the first Get.
func NewPool(sk *skeleton.Skeleton, opts Options) (*Pool, error) {
	if err := checkOptions(opts); err != nil {
		return nil, err
	}
	return &Pool{sk: sk, gran: opts.Granularity}, nil
}

// Get hands out a Space for exclusive use by the calling goroutine,
// building the shared tables first if none are held. Concurrent first Gets
// wait for one build.
func (p *Pool) Get() *Space {
	p.mu.Lock()
	if p.tab == nil {
		p.tab = newTables(p.sk, p.gran)
		p.builds.Add(1)
	}
	tab := p.tab
	var s *Space
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if s != nil {
		p.hits.Add(1)
	} else {
		p.misses.Add(1)
		s = &Space{sk: p.sk, tables: tab}
	}
	s.CheckedRebind = p.CheckedRebind
	return s
}

// Put returns a Space obtained from Get. The Space must not be used after.
// A Space handed out before a Release is dropped rather than parked, so it
// cannot pin the released tables.
func (p *Pool) Put(s *Space) {
	p.mu.Lock()
	if s.tables == p.tab {
		p.free = append(p.free, s)
	}
	p.mu.Unlock()
}

// Release drops the shared tables and every parked Space. Spaces still
// checked out keep working on the tables they hold; the next Get builds
// fresh ones.
func (p *Pool) Release() {
	p.mu.Lock()
	p.tab = nil
	p.free = nil
	p.mu.Unlock()
}
