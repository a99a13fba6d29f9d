package campaign

import (
	"path/filepath"
	"runtime"
	"testing"

	"spe/internal/corpus"
)

// These tests pin the central invariant of backend reuse: campaign reports
// are byte-identical with the pooled backends on (the default: interpreter
// machine pooling + minicc IR-template caching) and off (NoBackendReuse,
// every variant on cold state) — across worker counts, dispatch schedules,
// and checkpoint/resume. The cold report is the PR 3 semantics, so these
// tests are what licenses shipping reuse as the default.

func backendBaseConfig() Config {
	return Config{
		Corpus:             corpus.Seeds()[:5],
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 60,
		ShardSize:          8,
	}
}

func mustRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestBackendReuseEquivalence compares reuse on/off at several worker
// counts under both schedules.
func TestBackendReuseEquivalence(t *testing.T) {
	cold := backendBaseConfig()
	cold.NoBackendReuse = true
	cold.Workers = 1
	want := mustRun(t, cold).Format()

	workerCounts := []int{1, 3, runtime.NumCPU() + 1}
	if testing.Short() {
		workerCounts = []int{3} // race CI: one parallel config per schedule
	}
	for _, schedule := range []string{ScheduleFIFO, ScheduleCoverage} {
		for _, workers := range workerCounts {
			cfg := backendBaseConfig()
			cfg.Schedule = schedule
			cfg.Workers = workers
			if got := mustRun(t, cfg).Format(); got != want {
				t.Errorf("reuse report diverges (schedule=%s workers=%d):\n--- reuse ---\n%s--- cold ---\n%s",
					schedule, workers, got, want)
			}
		}
	}
}

// TestBackendReusePlusVersions widens the configuration matrix: several
// compiler versions and the full -O ladder, where seeded frontend crashes
// come and go per version — the replayed crash-check trace must track the
// live bug set exactly.
func TestBackendReusePlusVersions(t *testing.T) {
	base := Config{
		Corpus:             corpus.Seeds()[:3],
		Versions:           []string{"4.8", "6.0", "trunk"},
		MaxVariantsPerFile: 40,
		Workers:            2,
	}
	cold := base
	cold.NoBackendReuse = true
	want := mustRun(t, cold).Format()
	if got := mustRun(t, base).Format(); got != want {
		t.Errorf("reuse report diverges across versions:\n--- reuse ---\n%s--- cold ---\n%s", got, want)
	}
}

// TestBackendReuseParanoid runs the reuse path with -paranoid: every
// template-derived lowering is cross-checked against a fresh Lower, every
// rebind is invariant-checked, and the report must still match the cold
// baseline.
func TestBackendReuseParanoid(t *testing.T) {
	cold := backendBaseConfig()
	cold.NoBackendReuse = true
	want := mustRun(t, cold).Format()

	cfg := backendBaseConfig()
	cfg.Paranoid = true
	cfg.Workers = 2
	if got := mustRun(t, cfg).Format(); got != want {
		t.Errorf("paranoid reuse report diverges:\n--- paranoid ---\n%s--- cold ---\n%s", got, want)
	}
}

// TestBackendReuseRenderPath pins that the -render-path baseline is also
// unaffected by machine pooling (the IR cache is AST-path-only, but the
// interpreter machine is reused on both paths).
func TestBackendReuseRenderPath(t *testing.T) {
	if testing.Short() {
		t.Skip("render-path flavor is covered unpooled by the ast-equivalence tests")
	}
	cold := backendBaseConfig()
	cold.NoBackendReuse = true
	cold.ForceRenderPath = true
	want := mustRun(t, cold).Format()

	cfg := backendBaseConfig()
	cfg.ForceRenderPath = true
	cfg.Workers = 2
	if got := mustRun(t, cfg).Format(); got != want {
		t.Errorf("render-path reuse report diverges:\n--- reuse ---\n%s--- cold ---\n%s", got, want)
	}
}

// TestBackendReuseResume kills a reuse-enabled checkpointed campaign
// mid-run and asserts the resumed report matches the cold uninterrupted
// baseline: pooled backends hold no state a checkpoint would need.
func TestBackendReuseResume(t *testing.T) {
	base := backendBaseConfig()
	base.Workers = 2
	base.CheckpointEvery = 1

	cold := base
	cold.NoBackendReuse = true
	want := mustRun(t, cold).Format()

	path := filepath.Join(t.TempDir(), "backend.ckpt.json")
	cfg := base
	cfg.CheckpointPath = path

	interruptAtCheckpoint(t, cfg)
	resumed, err := Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Format(); got != want {
		t.Errorf("resumed reuse report diverges from cold baseline:\n--- resumed ---\n%s--- cold ---\n%s", got, want)
	}
}

// TestBackendReuseDirtyState is the campaign-level dirty-state regression
// test: a corpus whose variants mutate globals, static locals, and heap
// objects through pointers must report identically on pooled and cold
// backends — any state leaking from variant N into variant N+1 through a
// reused interpreter machine, VM slab, or patched IR template would show
// up as diverging UB filtering or differential verdicts.
func TestBackendReuseDirtyState(t *testing.T) {
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
	cold := base
	cold.NoBackendReuse = true
	want := mustRun(t, cold)
	if want.Stats.VariantsClean == 0 {
		t.Fatal("dirty-state corpus produced no clean variants; test is vacuous")
	}
	for _, workers := range []int{1, 4} {
		cfg := base
		cfg.Workers = workers
		got := mustRun(t, cfg)
		if got.Format() != want.Format() {
			t.Errorf("workers=%d: dirty-state report diverges:\n--- reuse ---\n%s--- cold ---\n%s",
				workers, got.Format(), want.Format())
		}
	}
}
