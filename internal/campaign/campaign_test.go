package campaign

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"spe/internal/corpus"
	"spe/internal/minicc"
)

// TestReportDeterministicAcrossWorkerCounts asserts the engine's core
// guarantee: the Report is byte-identical no matter how the variant space
// is sharded or how many workers race over it.
func TestReportDeterministicAcrossWorkerCounts(t *testing.T) {
	base := Config{
		Corpus:             corpus.Seeds()[:5],
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 120,
	}
	ref, err := Run(withWorkers(base, 1, 32))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Findings) == 0 {
		t.Fatal("reference campaign found nothing; determinism test is vacuous")
	}
	for _, tc := range []struct{ workers, shard int }{
		{4, 32},
		{3, 7},       // shard boundaries must not leak into the report
		{8, 1},       // one variant per task
		{2, 1 << 20}, // one task per file
	} {
		rep, err := Run(withWorkers(base, tc.workers, tc.shard))
		if err != nil {
			t.Fatalf("workers=%d shard=%d: %v", tc.workers, tc.shard, err)
		}
		if got, want := rep.Format(), ref.Format(); got != want {
			t.Errorf("workers=%d shard=%d: report diverges from workers=1:\n--- got ---\n%s--- want ---\n%s",
				tc.workers, tc.shard, got, want)
		}
		if !reflect.DeepEqual(rep.Findings, ref.Findings) {
			t.Errorf("workers=%d shard=%d: findings differ structurally", tc.workers, tc.shard)
		}
		if !reflect.DeepEqual(rep.Stats, ref.Stats) {
			t.Errorf("workers=%d shard=%d: stats differ: %+v vs %+v", tc.workers, tc.shard, rep.Stats, ref.Stats)
		}
	}
}

func withWorkers(cfg Config, workers, shard int) Config {
	cfg.Workers = workers
	cfg.ShardSize = shard
	return cfg
}

// TestCampaignFindsSeededBugsParallel mirrors the harness-level seeded-bug
// expectations through a parallel run.
func TestCampaignFindsSeededBugsParallel(t *testing.T) {
	rep, err := Run(Config{
		Corpus:             corpus.Seeds(),
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 400,
		Workers:            4,
	})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]*Finding{}
	for _, fd := range rep.Findings {
		byID[fd.BugID] = fd
	}
	if _, ok := byID["69801"]; !ok {
		t.Error("bug 69801 (fold-ternary) not found")
	}
	if _, ok := byID["69951"]; !ok {
		t.Error("bug 69951 (alias store forwarding) not found")
	}
	if rep.Stats.CrashFindings == 0 || rep.Stats.WrongFindings == 0 {
		t.Errorf("missing finding kinds: %+v", rep.Stats)
	}
	if rep.Stats.CanonicalTotal.Cmp(rep.Stats.NaiveTotal) >= 0 {
		t.Errorf("canonical total %s not below naive total %s",
			rep.Stats.CanonicalTotal, rep.Stats.NaiveTotal)
	}
}

// TestCorpusErrorPropagates asserts a malformed corpus file aborts the
// campaign with a descriptive error under any worker count.
func TestCorpusErrorPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Run(Config{
			Corpus:  []string{corpus.Seeds()[0], "int main( {"},
			Workers: workers,
		})
		if err == nil {
			t.Fatalf("workers=%d: campaign over malformed corpus succeeded", workers)
		}
	}
	// Two malformed files: index 1 fails only after a whole seed has been
	// parsed, index 3 at its first tokens, so parallel planning is likely
	// to see index 3 fail first. The error must still name the first
	// failing file in corpus order, whatever the worker count.
	seeds := corpus.Seeds()
	bad := []string{seeds[0], seeds[1] + "\nint main( {", seeds[2], "int main( {", seeds[3]}
	for _, workers := range []int{1, 4} {
		cfg := Config{Corpus: bad, Workers: workers, MaxVariantsPerFile: 5}
		_, runErr := Run(cfg)
		_, planErr := NewPlanner(cfg)
		for name, err := range map[string]error{"Run": runErr, "NewPlanner": planErr} {
			if err == nil || !strings.Contains(err.Error(), "corpus[1]") {
				t.Errorf("workers=%d %s: error %v, want one naming corpus[1]", workers, name, err)
			}
		}
	}
}

// TestCancellation asserts a canceled context stops the engine promptly
// and surfaces the cancellation.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, Config{Corpus: corpus.Seeds()[:2], Workers: 2})
	if err == nil {
		t.Fatal("canceled campaign returned no error")
	}
}

// TestFindingKinds sanity-checks kind counting in finalize.
func TestFindingKinds(t *testing.T) {
	rep, err := Run(Config{
		Corpus:             corpus.Seeds()[:3],
		MaxVariantsPerFile: 60,
		Workers:            2,
	})
	if err != nil {
		t.Fatal(err)
	}
	crash, wrong, perf := 0, 0, 0
	for _, fd := range rep.Findings {
		switch fd.Kind {
		case minicc.BugCrash:
			crash++
		case minicc.BugWrongCode:
			wrong++
		default:
			perf++
		}
	}
	if crash != rep.Stats.CrashFindings || wrong != rep.Stats.WrongFindings || perf != rep.Stats.PerfFindings {
		t.Errorf("kind counts (%d,%d,%d) disagree with stats %+v", crash, wrong, perf, rep.Stats)
	}
}
