package corpus

import (
	"math/big"
	"os"
	"path/filepath"
	"testing"

	"spe/internal/interp"
	"spe/internal/skeleton"
	"spe/internal/spe"
)

// TestRegionsSeedMatchesExample pins the embedded region-benchmark seed
// to the checked-in examples/regions/large.c byte for byte, so the file
// users read and the corpus the benchmark runs cannot drift apart.
func TestRegionsSeedMatchesExample(t *testing.T) {
	path := filepath.Join("..", "..", "examples", "regions", "large.c")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != RegionsSeed() {
		t.Fatalf("examples/regions/large.c diverges from corpus.RegionsSeed(); regenerate one from the other")
	}
}

// TestRegionsSeedShape asserts the properties the region benchmark
// relies on: the seed analyzes cleanly, is UB-free under its original
// filling, leads with a function whose filling count dwarfs the suffix
// product behind it (so it is the most significant moving digit of any
// strided walk), and yields multiple region cuts under a realistic plan.
func TestRegionsSeedShape(t *testing.T) {
	src := RegionsSeed()
	prog, err := analyze(src)
	if err != nil {
		t.Fatal(err)
	}
	r := interp.Run(prog, interp.Config{MaxSteps: 500_000})
	if !r.Defined() || r.Aborted {
		t.Fatalf("original filling is not cleanly defined: %+v", r)
	}
	sk, err := skeleton.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	total, counts := spe.CanonicalCounts(sk, spe.Intra)
	t.Logf("canonical fillings: %s, per function: %v", total, counts)
	if total.Cmp(big.NewInt(1000)) < 0 {
		t.Fatalf("canonical count %s too small for a meaningful strided walk", total)
	}
	if last := counts[len(counts)-1]; last.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("main enumerates %s fillings, want exactly 1 (it must not dilute sel's digit)", last)
	}

	// a realistic plan: budget 600 → stride total/600 clamped to 64
	// (mirrors campaign buildPlan: non-int64 canonical counts clamp to 64)
	budget := int64(600)
	stride := int64(64)
	if total.IsInt64() {
		stride = total.Int64() / budget
		if stride < 1 {
			stride = 1
		}
		if stride > 64 {
			stride = 64
		}
	}
	ceil := new(big.Int).Add(total, big.NewInt(stride-1))
	ceil.Quo(ceil, big.NewInt(stride))
	tested := budget
	if ceil.Cmp(big.NewInt(budget)) < 0 {
		tested = ceil.Int64()
	}
	cuts := spe.RegionCuts(counts, stride, tested, 16)
	t.Logf("stride=%d tested=%d cuts=%v", stride, tested, cuts)
	if len(cuts) < 4 {
		t.Fatalf("RegionCuts = %v (%d regions); want at least 4 for the schedule benchmark to steer", cuts, len(cuts))
	}
}
