package spe

import (
	"math/big"
	"testing"

	"spe/internal/partition"
	"spe/internal/skeleton"
)

// spaceSeeds are multi-function programs kept small enough that the whole
// canonical sequence can be checked against FillAt, including the
// mixed-radix rollovers between per-function digit positions.
var spaceSeeds = []string{
	`
int a, b;
int f() { return a + b; }
int main() {
    int c = 0;
    c = a + c;
    return b + c;
}
`,
	`
int g;
int f() { int x = 1; return g + x; }
int h() { int y = 2, z = 3; return y + z + g; }
int main() { return f() + h() + g; }
`,
}

// TestSpaceMatchesEnumeration asserts that FillAt(i) reproduces the i-th
// fill of EnumerateFills for every index, under both granularities.
func TestSpaceMatchesEnumeration(t *testing.T) {
	for si, src := range spaceSeeds {
		sk := skeleton.MustBuild(src)
		for _, gran := range []Granularity{Intra, Inter} {
			opts := Options{Mode: ModeCanonical, Granularity: gran}
			sp, err := NewSpace(sk, opts)
			if err != nil {
				t.Fatalf("seed %d gran %v: %v", si, gran, err)
			}
			var fills []string
			_, err = EnumerateFills(sk, opts, func(idx int, fill []partition.VarRef) bool {
				fills = append(fills, partition.FillKey(fill))
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if sp.Total().Cmp(big.NewInt(int64(len(fills)))) != 0 {
				t.Fatalf("seed %d gran %v: total %s, enumerated %d", si, gran, sp.Total(), len(fills))
			}
			if sp.Total().Cmp(Count(sk, opts)) != 0 {
				t.Fatalf("seed %d gran %v: total %s != Count %s", si, gran, sp.Total(), Count(sk, opts))
			}
			for i := range fills {
				fill, err := sp.FillAt(big.NewInt(int64(i)))
				if err != nil {
					t.Fatalf("seed %d gran %v: FillAt(%d): %v", si, gran, i, err)
				}
				if partition.FillKey(fill) != fills[i] {
					t.Fatalf("seed %d gran %v: FillAt(%d) diverges from enumeration", si, gran, i)
				}
			}
			if _, err := sp.FillAt(sp.Total()); err == nil {
				t.Errorf("seed %d gran %v: FillAt(total) did not error", si, gran)
			}
		}
	}
}

func TestSpaceRejectsNonCanonical(t *testing.T) {
	sk := skeleton.MustBuild(spaceSeeds[0])
	if _, err := NewSpace(sk, Options{Mode: ModeNaive}); err == nil {
		t.Error("NewSpace accepted ModeNaive")
	}
	if _, err := NewSpace(sk, Options{Mode: ModePaper}); err == nil {
		t.Error("NewSpace accepted ModePaper")
	}
}

// TestPoolLifecycle pins when a Pool counts: the first Get builds the
// shared tables, later Gets reuse them whether or not a Space came back,
// Release drops them together with the parked Spaces, and the next Get
// rebuilds them. Spaces from either side of a Release agree on every
// filling.
func TestPoolLifecycle(t *testing.T) {
	for _, gran := range []Granularity{Intra, Inter} {
		sk := skeleton.MustBuild(spaceSeeds[1])
		pool, err := NewPool(sk, Options{Mode: ModeCanonical, Granularity: gran})
		if err != nil {
			t.Fatal(err)
		}
		if pool.tab != nil {
			t.Fatalf("gran %v: pool holds tables before any Get", gran)
		}
		before, other := pool.Get(), pool.Get()
		if _, _, builds := pool.Stats(); builds != 1 {
			t.Fatalf("gran %v: two Gets without a Put built the tables %d times, want 1", gran, builds)
		}
		if before.tables != other.tables {
			t.Fatalf("gran %v: concurrent Spaces do not share one table set", gran)
		}
		pool.Put(other)
		if hits, misses, _ := pool.Stats(); hits != 0 || misses != 2 {
			t.Fatalf("gran %v: stats hits=%d misses=%d, want 0 and 2", gran, hits, misses)
		}

		pool.Release()
		if pool.tab != nil || len(pool.free) != 0 {
			t.Fatalf("gran %v: pool holds tables or parked Spaces after Release", gran)
		}
		after := pool.Get()
		if hits, misses, builds := pool.Stats(); builds != 2 || hits != 0 || misses != 3 {
			t.Fatalf("gran %v: Get after Release: hits=%d misses=%d builds=%d, want a fresh Space over rebuilt tables (0, 3, 2)",
				gran, hits, misses, builds)
		}
		if after.tables == before.tables {
			t.Fatalf("gran %v: Get after Release reused the released tables", gran)
		}
		total := before.Total()
		if total.Cmp(after.Total()) != 0 {
			t.Fatalf("gran %v: totals diverge across Release: %s vs %s", gran, total, after.Total())
		}
		for i := int64(0); i < total.Int64(); i++ {
			x, err := before.FillAt(big.NewInt(i))
			if err != nil {
				t.Fatal(err)
			}
			y, err := after.FillAt(big.NewInt(i))
			if err != nil {
				t.Fatal(err)
			}
			if partition.FillKey(x) != partition.FillKey(y) {
				t.Fatalf("gran %v: FillAt(%d) diverges across Release", gran, i)
			}
		}

		// a Space from before the Release is not parked (it would pin the
		// released tables); one from after is
		pool.Put(before)
		pool.Put(after)
		if s := pool.Get(); s != after {
			t.Fatalf("gran %v: Get did not recycle the Space parked after Release", gran)
		}
		if hits, _, _ := pool.Stats(); hits != 1 {
			t.Fatalf("gran %v: hits=%d after recycling one Space, want 1", gran, hits)
		}
	}
}

// TestCanonicalCounts asserts the planning counts agree with a Space's
// tables: per-function digits under intra granularity, none under inter,
// and the same total either way.
func TestCanonicalCounts(t *testing.T) {
	for si, src := range spaceSeeds {
		sk := skeleton.MustBuild(src)
		for _, gran := range []Granularity{Intra, Inter} {
			sp, err := NewSpace(sk, Options{Mode: ModeCanonical, Granularity: gran})
			if err != nil {
				t.Fatal(err)
			}
			total, perFunc := CanonicalCounts(sk, gran)
			if total.Cmp(sp.Total()) != 0 {
				t.Errorf("seed %d gran %v: CanonicalCounts total %s, Space %s", si, gran, total, sp.Total())
			}
			if len(perFunc) != len(sp.counts) {
				t.Fatalf("seed %d gran %v: %d per-function counts, Space has %d", si, gran, len(perFunc), len(sp.counts))
			}
			for i := range perFunc {
				if perFunc[i].Cmp(sp.counts[i]) != 0 {
					t.Errorf("seed %d gran %v: function %d count %s, Space %s", si, gran, i, perFunc[i], sp.counts[i])
				}
			}
		}
	}
}
