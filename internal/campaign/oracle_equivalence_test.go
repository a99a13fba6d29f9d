package campaign

import (
	"path/filepath"
	"runtime"
	"testing"

	"spe/internal/corpus"
)

// These tests pin the central invariant of the bytecode reference oracle
// (internal/refvm): campaign reports are byte-identical with
// -oracle=bytecode (the default: skeleton-compiled UB-checking bytecode,
// hole sites patched per variant) and -oracle=tree (the historical
// tree-walking interpreter) — across worker counts, dispatch schedules,
// checkpoint/resume, backend reuse on/off, and -paranoid. The tree report
// is the PR 4 semantics, so these tests are what licenses shipping the
// bytecode oracle as the default.

func oracleBaseConfig() Config {
	return Config{
		Corpus:             corpus.Seeds()[:5],
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 60,
		ShardSize:          8,
	}
}

// TestOracleEquivalence compares tree vs bytecode oracles at several
// worker counts under both schedules.
func TestOracleEquivalence(t *testing.T) {
	tree := oracleBaseConfig()
	tree.Oracle = OracleTree
	tree.Workers = 1
	want := mustRun(t, tree).Format()

	workerCounts := []int{1, 3, runtime.NumCPU() + 1}
	if testing.Short() {
		workerCounts = []int{3} // race CI: one parallel config per schedule
	}
	for _, schedule := range []string{ScheduleFIFO, ScheduleCoverage} {
		for _, workers := range workerCounts {
			cfg := oracleBaseConfig()
			cfg.Oracle = OracleBytecode
			cfg.Schedule = schedule
			cfg.Workers = workers
			if got := mustRun(t, cfg).Format(); got != want {
				t.Errorf("bytecode report diverges (schedule=%s workers=%d):\n--- bytecode ---\n%s--- tree ---\n%s",
					schedule, workers, got, want)
			}
		}
	}
}

// TestOracleEquivalenceVersions widens the configuration matrix: several
// compiler versions and the full -O ladder. Wrong-code attribution
// re-runs the reference result against selectively deactivated bug sets,
// so any step-count or verdict drift between the oracles would flip
// attribution verdicts here.
func TestOracleEquivalenceVersions(t *testing.T) {
	base := Config{
		Corpus:             corpus.Seeds()[:3],
		Versions:           []string{"4.8", "6.0", "trunk"},
		MaxVariantsPerFile: 40,
		Workers:            2,
	}
	tree := base
	tree.Oracle = OracleTree
	want := mustRun(t, tree).Format()
	bc := base
	bc.Oracle = OracleBytecode
	if got := mustRun(t, bc).Format(); got != want {
		t.Errorf("bytecode report diverges across versions:\n--- bytecode ---\n%s--- tree ---\n%s", got, want)
	}
}

// TestOracleParanoid runs the bytecode oracle with -paranoid, which
// cross-checks every variant's bytecode verdict against the tree-walker
// in-line (output bytes, exit status, UB kind/position, steps) and aborts
// on divergence; the report must still match the tree baseline.
func TestOracleParanoid(t *testing.T) {
	tree := oracleBaseConfig()
	tree.Oracle = OracleTree
	want := mustRun(t, tree).Format()

	cfg := oracleBaseConfig()
	cfg.Oracle = OracleBytecode
	cfg.Paranoid = true
	cfg.Workers = 2
	if got := mustRun(t, cfg).Format(); got != want {
		t.Errorf("paranoid bytecode report diverges:\n--- paranoid ---\n%s--- tree ---\n%s", got, want)
	}
}

// TestOracleColdBackends pins the NoBackendReuse flavor: with pooling
// off, the bytecode oracle compiles fresh per variant and must still
// agree with the pooled tree baseline.
func TestOracleColdBackends(t *testing.T) {
	tree := oracleBaseConfig()
	tree.Oracle = OracleTree
	want := mustRun(t, tree).Format()

	cfg := oracleBaseConfig()
	cfg.Oracle = OracleBytecode
	cfg.NoBackendReuse = true
	cfg.Workers = 2
	if got := mustRun(t, cfg).Format(); got != want {
		t.Errorf("cold bytecode report diverges:\n--- cold bytecode ---\n%s--- tree ---\n%s", got, want)
	}
}

// TestOracleResume kills a bytecode-oracle checkpointed campaign mid-run
// and asserts the resumed report matches the tree uninterrupted baseline:
// oracle templates hold no state a checkpoint would need, and a resume
// (whose checkpoint embeds Oracle in its config) replays identically.
func TestOracleResume(t *testing.T) {
	base := oracleBaseConfig()
	base.Workers = 2
	base.CheckpointEvery = 1

	tree := base
	tree.Oracle = OracleTree
	want := mustRun(t, tree).Format()

	path := filepath.Join(t.TempDir(), "oracle.ckpt.json")
	cfg := base
	cfg.Oracle = OracleBytecode
	cfg.CheckpointPath = path

	interruptAtCheckpoint(t, cfg)
	resumed, err := Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Format(); got != want {
		t.Errorf("resumed bytecode report diverges from tree baseline:\n--- resumed ---\n%s--- tree ---\n%s", got, want)
	}
}

// TestOracleDirtyState is the campaign-level dirty-state regression test
// for the pooled bytecode VM: variants that mutate globals, static
// locals, recurse, print, and forge pointers must report identically on
// the pooled bytecode oracle, the cold bytecode oracle, and the tree
// oracle — any slab, frame, static-slot, or string-intern state leaking
// from variant N into variant N+1 would show up as diverging UB
// filtering or differential verdicts.
func TestOracleDirtyState(t *testing.T) {
	dirty := `
int g = 1;
int h = 2;
int counter() { static int n = 0; n = n + 1; return n; }
int main() {
    int a = 3, b = 4;
    int buf[6];
    int *p = &a;
    int i;
    for (i = 0; i < 6; i++) buf[i] = g + i;
    g = g + b;
    h = h + a;
    *p = counter() + buf[2];
    printf("%d %d %d %d\n", g, h, a, counter());
    return g + h + a + b;
}
`
	base := Config{
		Corpus:             []string{dirty},
		Versions:           []string{"trunk"},
		Threshold:          -1, // the probe's canonical space is large by design
		MaxVariantsPerFile: 120,
		Workers:            1,
	}
	tree := base
	tree.Oracle = OracleTree
	want := mustRun(t, tree)
	if want.Stats.VariantsClean == 0 {
		t.Fatal("dirty-state corpus produced no clean variants; test is vacuous")
	}
	for _, workers := range []int{1, 4} {
		for _, cold := range []bool{false, true} {
			cfg := base
			cfg.Oracle = OracleBytecode
			cfg.Workers = workers
			cfg.NoBackendReuse = cold
			got := mustRun(t, cfg)
			if got.Format() != want.Format() {
				t.Errorf("workers=%d cold=%v: dirty-state report diverges:\n--- bytecode ---\n%s--- tree ---\n%s",
					workers, cold, got.Format(), want.Format())
			}
		}
	}
}

// TestOracleUnknownRejected pins the config validation.
func TestOracleUnknownRejected(t *testing.T) {
	cfg := oracleBaseConfig()
	cfg.Oracle = "quantum"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown oracle accepted")
	}
}
