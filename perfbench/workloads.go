package main

import (
	"fmt"
	"math/rand"
	"strings"

	"spe/internal/cc"
	"spe/internal/corpus"
	"spe/internal/minicc"
)

// workload is one input set the benchmark runs. Campaign workloads push
// every UB-free variant of a stride-sampled walk through the compilers
// under test; the enumerate workload counts every file in all three modes
// and renders its canonical variants in sequence, executing nothing.
type workload struct {
	name string
	// why records why the workload was chosen and which layer it loads.
	why        string
	enumerate  bool
	corpusSeed int64 // corpus.Generate seed
	withSeeds  bool  // prepend the handwritten corpus.Seeds()
	generated  int   // number of generated corpus files
	// perFile is the campaign's MaxVariantsPerFile, or the enumerate
	// workload's per-file render cap.
	perFile  int
	versions []string // compiler versions under test (campaign only)
}

var workloads = []workload{
	{
		name: "trunk_mix",
		why: "What `spe campaign` does by default: trunk only at -O0..-O3, fifo schedule, default engine. " +
			"The refvm oracle does most of the work, almost all of it on variants that run out the step budget.",
		corpusSeed: 20170621,
		withSeeds:  true,
		generated:  60,
		perFile:    50,
		versions:   []string{"trunk"},
	},
	{
		name: "versions_sweep",
		why: "The paper's multi-release testing: all four minicc versions at -O0..-O3, 16 configurations per clean variant. " +
			"The minicc backend (lower, passes, exec) does most of the work; old-version miscompiles run exec out of budget.",
		corpusSeed: 20170625,
		generated:  30,
		perFile:    30,
		versions:   minicc.Versions,
	},
	{
		name: "enumerate",
		why: "Table 1's `spe count` and `spe enumerate`: count every file in all three modes, then render canonical variants in sequence. " +
			"Counting and enumeration do all the work and nothing is executed; it walks the space in order, where campaigns unrank at random.",
		enumerate:  true,
		corpusSeed: 20170618,
		withSeeds:  true,
		generated:  150,
		perFile:    1000,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// corpusFor builds the workload's corpus for one input seed. The files come
// from corpus.Generate at the workload's corpus seed; the input seed then
// renames every variable and parameter of every file through a seeded
// bijection. A renaming changes every input byte but, variants being
// counted up to alpha-equivalence, none of the enumeration, oracle or
// compiler work, so seeds vary the inputs without varying the amount of
// work. (Varying the generator seed instead moves trunk_mix throughput by
// a factor of three from seed to seed, which no fixed bound can hold.)
func corpusFor(w workload, seed int64) ([]string, error) {
	var files []string
	if w.withSeeds {
		files = corpus.Seeds()
	}
	files = append(files, corpus.Generate(corpus.Config{N: w.generated, Seed: w.corpusSeed})...)
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, len(files))
	for i, src := range files {
		renamed, err := renameVariables(src, rng)
		if err != nil {
			return nil, fmt.Errorf("corpus[%d]: %w", i, err)
		}
		out[i] = renamed
	}
	return out, nil
}

// renameVariables gives every variable and parameter of src a fresh,
// unique name: a random two-letter prefix and a random permutation of the
// symbol numbers. Functions keep their names.
func renameVariables(src string, rng *rand.Rand) (string, error) {
	f, err := cc.Parse(src)
	if err != nil {
		return "", err
	}
	prog, err := cc.Analyze(f)
	if err != nil {
		return "", err
	}
	taken := make(map[string]bool)
	for _, s := range prog.Symbols {
		if s.Kind == cc.SymFunc {
			taken[s.Name] = true
		}
	}
	var prefix string
	for prefix == "" || taken[prefix] {
		prefix = string([]byte{byte('a' + rng.Intn(26)), byte('a' + rng.Intn(26))})
	}
	perm := rng.Perm(len(prog.Symbols))
	name := func(s *cc.Symbol) string {
		n := fmt.Sprintf("%s%d", prefix, perm[s.ID])
		for taken[n] {
			n += "_"
		}
		return n
	}
	p := cc.Printer{
		Rename: func(id *cc.Ident) string {
			if id.Sym != nil && id.Sym.Kind != cc.SymFunc {
				return name(id.Sym)
			}
			return id.Name
		},
		RenameDecl: func(d *cc.VarDecl) string {
			if d.Sym != nil {
				return name(d.Sym)
			}
			return d.Name
		},
	}
	return p.File(prog.File), nil
}
