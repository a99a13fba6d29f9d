package campaign

import (
	"fmt"
	"time"

	"spe/internal/cc"
	"spe/internal/interp"
	"spe/internal/minicc"
	"spe/internal/refvm"
)

// The classification pipeline is split across the worker/aggregator
// boundary: workers do everything expensive (parsing, reference
// interpretation, compilation, execution, root-cause attribution) and emit
// compact symptom records; the aggregator replays those records in
// canonical enumeration order, which keeps finding deduplication,
// attribution memoization, and sample-test-case selection byte-identical to
// the sequential harness regardless of worker scheduling.

// variantStatus is the coarse outcome of preparing one variant.
type variantStatus int

const (
	// statusParseFail marks a rendered variant the front end rejected — a
	// bug in us. On the AST-resident hot path no per-variant parse happens,
	// so this status can only arise from the original seed source, from
	// ForceRenderPath, or from the -paranoid cross-check (which re-parses
	// every variant and fails the campaign loudly on divergence).
	statusParseFail variantStatus = iota
	statusUB                      // filtered by the reference interpreter
	statusClean
)

// symptomClass discriminates symptom records.
type symptomClass int

const (
	classCrash symptomClass = iota
	classPerfHang
	classMismatch
)

// symptom is one compiler-configuration-level divergence observed by a
// worker.
type symptom struct {
	Ver   string
	Opt   int
	Class symptomClass
	// BugID carries the crash's bug, the compile-hang attribution, or the
	// shard-local wrong-code attribution (the aggregator keeps only the
	// first-in-order attribution per memo key, matching the sequential
	// memoization).
	BugID  string
	Sig    string
	Coarse string // mismatch symptom class for memoization
}

// variantResult is everything the aggregator needs to replay one tested
// variant. src is populated lazily: the aggregator only reads it when a
// symptom turns into a finding's sample test case, so the AST-resident hot
// path renders source exclusively for symptomatic variants.
type variantResult struct {
	status     variantStatus
	executions int
	src        string
	symptoms   []symptom
}

// attrKey keys the shard-local wrong-code attribution memo: a compact
// comparable struct instead of the historical "ver|opt|coarse" string, so
// the per-mismatch memo probe allocates and formats nothing.
type attrKey struct {
	ver    string
	opt    int
	coarse string
}

// classifier carries a shard task's classification state: the attribution
// memo. It is checked out per shard task exactly like the Space and
// backendState — shard-local, never shared across workers — which keeps
// attribution memoization deterministic (seed-scoped: a task never spans
// files).
type classifier struct {
	attr map[attrKey]string
}

func newClassifier() *classifier {
	return &classifier{attr: make(map[attrKey]string)}
}

// evalSource runs one variant given as source text: the historical
// render→parse→analyze front end followed by evalProgram. It serves the
// original seed programs (whose report text must stay the raw corpus
// bytes), the ForceRenderPath baseline, and the reduction predicate's
// candidates. A freshly parsed program has no stable identity to key the
// IR-template cache on, so only the interpreter machine of be is reused
// here; compilation runs cold.
func evalSource(cfg Config, src string, be *backendState, cl *classifier, cov *minicc.Coverage, so *shardObs) variantResult {
	file, err := cc.Parse(src)
	if err != nil {
		return variantResult{src: src}
	}
	prog, err := cc.Analyze(file)
	if err != nil {
		return variantResult{src: src}
	}
	vr, _ := evalProgram(cfg, prog, nil, be, func() string { return src }, cl, cov, so)
	return vr
}

// evalProgram runs one analyzed variant through the reference interpreter
// and all compiler configurations — the worker half of the old testVariant,
// now consuming the typed program directly so the AST-resident hot path
// skips the front end entirely. render supplies the variant's source on
// demand; it is invoked at most once, and only when the variant exhibits a
// symptom (the text becomes a finding's reproduction test case). cl is
// the shard-local classifier (see classifyOutcome); cov records the
// compiler instrumentation sites the variant exercises (recording is
// side-effect-free in minicc, so coverage collection never perturbs the
// differential verdicts). Attribution recompilations deliberately bypass
// the recorder: they re-run the same program with bugs deactivated and
// would only blur the novelty signal.
func evalProgram(cfg Config, prog *cc.Program, holes []*cc.Ident, be *backendState, render func() string, cl *classifier, cov *minicc.Coverage, so *shardObs) (variantResult, error) {
	vr := variantResult{}
	// stage timing exists only when telemetry is attached (so != nil): with
	// telemetry off, no clock is read anywhere on the per-variant path
	var t0 time.Time
	if so != nil {
		t0 = time.Now()
	}
	ref, err := referenceRun(cfg, prog, holes, be, so)
	if so != nil {
		so.oracleNs += time.Since(t0).Nanoseconds()
	}
	if err != nil {
		return vr, err
	}
	if !ref.Defined() {
		vr.status = statusUB
		return vr, nil
	}
	vr.status = statusClean
	if err := evalBackends(cfg, prog, holes, be, ref, render, cl, cov, so, &vr); err != nil {
		return vr, err
	}
	return vr, nil
}

// evalBackends is the compiler half of evalProgram: it runs one clean
// variant through every (version, optimization level) configuration and
// classifies each divergence from the oracle verdict ref into vr's
// symptoms. Stage timing splits compile+execute (backend) from
// classification and attribution (classify), so /status shows where a
// configuration's time actually goes.
func evalBackends(cfg Config, prog *cc.Program, holes []*cc.Ident, be *backendState, ref *interp.Result, render func() string, cl *classifier, cov *minicc.Coverage, so *shardObs, vr *variantResult) error {
	// the compiled binary needs only a small multiple of the reference's
	// step count; a much larger consumption is already a hang symptom, so
	// an adaptive budget keeps miscompiled infinite loops cheap to detect
	execSteps := ref.Steps*20 + 50_000
	var t0 time.Time
	for _, ver := range cfg.Versions {
		for _, opt := range cfg.OptLevels {
			vr.executions++
			comp := &minicc.Compiler{Version: ver, Opt: opt, Seeded: true, Coverage: cov}
			if so != nil {
				t0 = time.Now()
			}
			ecfg := minicc.ExecConfig{MaxSteps: execSteps}
			var ro *minicc.RunOutcome
			if be != nil && holes != nil {
				// template-cached backend: the skeleton was lowered once,
				// this variant replays the trace and patches the moved
				// holes' IR sites; under -paranoid each patched lowering is
				// checked against a fresh Lower and a divergence aborts the
				// campaign
				cached, err := comp.RunCached(be.cache, prog, holes, ecfg, cfg.Paranoid)
				if err != nil {
					return err
				}
				ro = cached
			} else {
				ro = comp.Run(prog, ecfg)
			}
			if so != nil {
				now := time.Now()
				so.backendNs += now.Sub(t0).Nanoseconds()
				t0 = now
			}
			if s, found := classifyOutcome(ver, opt, ref, ro, prog, cl); found {
				if vr.src == "" {
					vr.src = render()
				}
				vr.symptoms = append(vr.symptoms, s)
			}
			if so != nil {
				so.classifyNs += time.Since(t0).Nanoseconds()
			}
		}
	}
	return nil
}

// referenceRun obtains the variant's reference semantics from the
// configured oracle. The bytecode engine serves the AST-resident hot path
// (it keys its template cache on the analyzed program's identity and the
// skeleton's hole metadata); evalSource callers pass nil holes and always
// get the tree-walker. With backend reuse off, the bytecode oracle
// compiles fresh per variant — still the bytecode semantics, cold — so
// reuse on/off stays byte-identical under either oracle. Under Paranoid,
// the bytecode verdict is cross-checked against the tree-walker and a
// divergence aborts the campaign with an error naming the difference.
func referenceRun(cfg Config, prog *cc.Program, holes []*cc.Ident, be *backendState, so *shardObs) (*interp.Result, error) {
	runTree := func() *interp.Result {
		if be != nil {
			// pooled machine: frames/objects/environments reset, not reallocated
			return be.mach.Run(prog, interp.Config{MaxSteps: cfg.Steps})
		}
		return interp.Run(prog, interp.Config{MaxSteps: cfg.Steps})
	}
	if cfg.Oracle != OracleBytecode || holes == nil {
		return runTree(), nil
	}
	var ref *interp.Result
	if be != nil {
		ref = be.ref.Run(prog, holes, refvm.Config{MaxSteps: cfg.Steps})
	} else {
		ref = refvm.Run(prog, refvm.Config{MaxSteps: cfg.Steps})
	}
	if cfg.Paranoid {
		if so != nil {
			so.paranoidChecks++
		}
		if err := crossCheckOracle(runTree(), ref); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// crossCheckOracle is the -paranoid assertion for the bytecode oracle:
// the two engines must agree on the whole verdict surface the campaign
// consumes — UB kind and position, limit presence, abort flag, exit
// status, stdout bytes, and (for defined runs) the step count that sizes
// the compiled binary's execution budget. A non-terminating verdict (the
// bytecode oracle's proof that a loop makes no progress) is the one
// exception: it passes exactly when the tree's full-budget run is not
// Defined either.
func crossCheckOracle(tree, bc *interp.Result) error {
	switch {
	case bc.Limit != nil && bc.Limit.NonTerm:
		if tree.Defined() {
			return fmt.Errorf("paranoid: oracle divergence: bytecode proved non-termination (%v), tree run is defined", bc.Limit)
		}
		return nil
	case (tree.UB == nil) != (bc.UB == nil):
		return fmt.Errorf("paranoid: oracle divergence: tree UB %v, bytecode UB %v", tree.UB, bc.UB)
	case tree.UB != nil:
		if tree.UB.Kind != bc.UB.Kind || tree.UB.Pos != bc.UB.Pos {
			return fmt.Errorf("paranoid: oracle divergence: tree UB %v at %v, bytecode UB %v at %v",
				tree.UB.Kind, tree.UB.Pos, bc.UB.Kind, bc.UB.Pos)
		}
		return nil
	case (tree.Limit == nil) != (bc.Limit == nil):
		return fmt.Errorf("paranoid: oracle divergence: tree limit %v, bytecode limit %v", tree.Limit, bc.Limit)
	case tree.Limit != nil:
		return nil
	case tree.Aborted != bc.Aborted:
		return fmt.Errorf("paranoid: oracle divergence: tree aborted %v, bytecode aborted %v", tree.Aborted, bc.Aborted)
	case tree.Exit != bc.Exit:
		return fmt.Errorf("paranoid: oracle divergence: tree exit %d, bytecode exit %d", tree.Exit, bc.Exit)
	case tree.Output != bc.Output:
		return fmt.Errorf("paranoid: oracle divergence: tree output %q, bytecode output %q", tree.Output, bc.Output)
	case tree.Steps != bc.Steps:
		return fmt.Errorf("paranoid: oracle divergence: tree steps %d, bytecode steps %d", tree.Steps, bc.Steps)
	}
	return nil
}

// classifyOutcome turns one compile+run outcome into a symptom record.
// Wrong-code symptoms are attributed by selectively deactivating seeded
// bugs, memoized per shard and symptom class: within one shard the first
// variant exhibiting a class pays for the recompilations and later ones
// reuse its verdict, exactly as the sequential campaignState memo did
// within a whole campaign. The aggregator reduces the shard-local memos to
// the campaign-global one.
func classifyOutcome(ver string, opt int, ref *interp.Result,
	ro *minicc.RunOutcome, prog *cc.Program, cl *classifier) (symptom, bool) {

	out := ro.Compile
	switch {
	case out.Crash != nil:
		return symptom{Ver: ver, Opt: opt, Class: classCrash,
			BugID: out.Crash.BugID, Sig: out.Crash.Signature}, true
	case out.Timeout != nil:
		return symptom{Ver: ver, Opt: opt, Class: classPerfHang,
			BugID: attributePerf(ver, opt), Sig: "compile-time hang: " + out.Timeout.Pass}, true
	case out.Err != nil:
		return symptom{}, false // unsupported construct; not a bug signal
	}
	ex := ro.Exec
	ok := ex.Ok() == (ref.UB == nil && !ref.Aborted) &&
		ex.Aborted == ref.Aborted &&
		(ex.Aborted || (ex.Exit == ref.Exit && ex.Output == ref.Output && ex.Trap == "" && !ex.Timeout))
	if ok {
		return symptom{}, false
	}
	// symptom classes: the detailed signature is for display; the coarse
	// class drives deduplication and attribution memoization (the paper
	// likewise dedupes reports by symptom, not by concrete wrong values)
	coarse := "wrong-exit"
	sig := fmt.Sprintf("wrong code (exit %d, expected %d)", ex.Exit, ref.Exit)
	if ex.Exit == ref.Exit {
		coarse = "wrong-output"
		sig = fmt.Sprintf("wrong code (output %q, expected %q)", ex.Output, ref.Output)
	}
	if ex.Trap != "" {
		coarse = "trap"
		sig = "runtime trap: " + ex.Trap
	}
	if ex.Timeout {
		coarse = "hang"
		sig = "runtime hang (step budget exhausted)"
	}
	memo := attrKey{ver: ver, opt: opt, coarse: coarse}
	bugID, cached := cl.attr[memo]
	if !cached {
		bugID = attributeWrongCode(prog, ver, opt, ref)
		cl.attr[memo] = bugID
	}
	return symptom{Ver: ver, Opt: opt, Class: classMismatch,
		BugID: bugID, Sig: sig, Coarse: coarse}, true
}

// attributeWrongCode finds which single seeded bug explains a wrong-code
// symptom by deactivating active bugs one at a time — a seeded-oracle
// analogue of the paper's root-cause triage.
func attributeWrongCode(prog *cc.Program, ver string, opt int, ref *interp.Result) string {
	vi := minicc.VersionIndex(ver)
	if vi < 0 {
		vi = len(minicc.Versions) - 1
	}
	full := minicc.BugsFor(vi, opt)
	for _, hook := range full.Hooks() {
		reduced := full.Without(hook)
		comp := &minicc.Compiler{Version: ver, Opt: opt, Bugs: reduced}
		ro := comp.Run(prog, minicc.ExecConfig{MaxSteps: ref.Steps*20 + 50_000})
		if !ro.Compile.Ok() {
			continue
		}
		ex := ro.Exec
		if ex.Ok() && ex.Exit == ref.Exit && ex.Output == ref.Output && ex.Aborted == ref.Aborted {
			for _, b := range minicc.Registry() {
				if b.Hook == hook {
					return b.ID
				}
			}
		}
	}
	return ""
}

// attributePerf maps a compile timeout to the active performance bug.
func attributePerf(ver string, opt int) string {
	vi := minicc.VersionIndex(ver)
	if vi < 0 {
		vi = len(minicc.Versions) - 1
	}
	set := minicc.BugsFor(vi, opt)
	for _, b := range minicc.Registry() {
		if b.Kind == minicc.BugPerformance && set.Active(b.Hook) {
			return b.ID
		}
	}
	return ""
}
