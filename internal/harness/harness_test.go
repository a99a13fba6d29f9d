package harness

import (
	"testing"

	"spe/internal/campaign"
	"spe/internal/corpus"
	"spe/internal/minicc"
)

func TestCampaignFindsSeededBugs(t *testing.T) {
	// the handwritten seeds model exactly the bug families of the paper's
	// figures; a trunk campaign over them must find several seeded bugs
	rep, err := campaign.Run(campaign.Config{
		Corpus:             corpus.Seeds(),
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("campaign found no bugs")
	}
	byID := map[string]*campaign.Finding{}
	for _, fd := range rep.Findings {
		byID[fd.BugID] = fd
		t.Logf("found: id=%s kind=%v sig=%q opts=%v occurrences=%d",
			fd.BugID, fd.Kind, fd.Signature, fd.OptLevels, fd.Occurrences)
	}
	// Figure 3's family must expose the fold-ternary crash (bug 69801)
	if _, ok := byID["69801"]; !ok {
		t.Error("bug 69801 (fold-ternary) not found from Figure 3 seed")
	}
	// Figure 2's family must expose the alias wrong-code bug (69951)
	if _, ok := byID["69951"]; !ok {
		t.Error("bug 69951 (alias store forwarding) not found from Figure 2 seed")
	}
	if rep.Stats.CrashFindings == 0 {
		t.Error("no crash findings")
	}
	if rep.Stats.WrongFindings == 0 {
		t.Error("no wrong-code findings")
	}
	if rep.Stats.VariantsClean == 0 || rep.Stats.Variants == 0 {
		t.Error("no variants tested")
	}
	// SPE's reduction must be visible in the aggregate counts
	if rep.Stats.CanonicalTotal.Cmp(rep.Stats.NaiveTotal) >= 0 {
		t.Errorf("canonical total %s not below naive total %s",
			rep.Stats.CanonicalTotal, rep.Stats.NaiveTotal)
	}
}

func TestCampaignCleanCompilerFindsNothing(t *testing.T) {
	// Sanity: with all bugs fixed ("a future version"), differential
	// testing over a small corpus must report nothing. Build a pseudo
	// version by running unseeded compilers through the classifier: we
	// approximate by checking that unseeded compilation matches the
	// reference on every clean variant of one seed.
	rep, err := campaign.Run(campaign.Config{
		Corpus:             corpus.Seeds()[:2],
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	// the findings must all be attributable to seeded bugs (non-empty ID)
	for _, fd := range rep.Findings {
		if fd.BugID == "" && fd.Kind == minicc.BugWrongCode {
			t.Errorf("unattributed wrong-code finding (possible harness false positive): %q\n%s",
				fd.Signature, fd.TestCase)
		}
	}
}

func TestThresholdSkipsLargeFiles(t *testing.T) {
	big := `
int a, b, c, d;
int main() {
    a = b; b = c; c = d; d = a;
    a = b; b = c; c = d; d = a;
    a = b; b = c; c = d; d = a;
    a = b; b = c; c = d; d = a;
    return 0;
}`
	rep, err := campaign.Run(campaign.Config{
		Corpus:    []string{big},
		Threshold: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.FilesSkipped != 1 {
		t.Errorf("files skipped = %d, want 1", rep.Stats.FilesSkipped)
	}
	if rep.Stats.Variants != 0 {
		t.Errorf("variants = %d, want 0", rep.Stats.Variants)
	}
}

func TestUBVariantsFiltered(t *testing.T) {
	// enumerating this skeleton produces divisions by a zero-initialized
	// variable; the reference interpreter must filter those variants
	seed := `
int main() {
    int a = 0, b = 2;
    int r = 10 / b;
    printf("%d\n", r);
    return 0;
}`
	rep, err := campaign.Run(campaign.Config{
		Corpus:             []string{seed},
		MaxVariantsPerFile: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.VariantsUB == 0 {
		t.Error("no UB variants filtered; expected divisions by zero under re-filling")
	}
	if rep.Stats.VariantsClean == 0 {
		t.Error("no clean variants")
	}
}

func TestCoverageExperimentShape(t *testing.T) {
	cfg := CoverageConfig{
		Corpus:          corpus.Seeds()[:6],
		VariantsPerFile: 10,
		PMLevels:        []int{10},
		PMVariants:      10,
		Seed:            1,
	}
	rep, err := CoverageExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Baseline.Line <= 0 || rep.Baseline.Line > 1 {
		t.Errorf("baseline line coverage = %v", rep.Baseline.Line)
	}
	// SPE coverage dominates the baseline (paper Figure 9's shape)
	if rep.SPE.Line < rep.Baseline.Line {
		t.Errorf("SPE line coverage %v below baseline %v", rep.SPE.Line, rep.Baseline.Line)
	}
	if rep.SPE.Function < rep.Baseline.Function {
		t.Errorf("SPE function coverage %v below baseline %v", rep.SPE.Function, rep.Baseline.Function)
	}
	pm := rep.PM[10]
	if pm.Line < rep.Baseline.Line {
		t.Errorf("PM line coverage %v below baseline %v", pm.Line, rep.Baseline.Line)
	}
	imp := rep.SPE.Improvement(rep.Baseline)
	t.Logf("SPE improvement: func %.2f%%, line %.2f%%; PM-10: func %.2f%%, line %.2f%%",
		imp.Function, imp.Line,
		pm.Improvement(rep.Baseline).Function, pm.Improvement(rep.Baseline).Line)
}
