package campaign

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"sync"
	"time"

	"spe/internal/cc"
	"spe/internal/minicc"
	"spe/internal/spe"
)

// Run executes a campaign with the configured worker pool.
func Run(cfg Config) (*Report, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: when ctx is canceled the engine
// stops dispatching shards, drains its workers, and returns ctx's error.
// A checkpointed campaign canceled mid-run resumes from its checkpoint to
// the same findings an uninterrupted run produces.
func RunContext(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	return runEngine(ctx, cfg, newAggState())
}

// taskResult is one shard's worth of worker output, merged by seq order.
type taskResult struct {
	seq     int
	err     error
	plan    *filePlan
	newFile bool
	// region is the shard's scheduling region (task.region), the key the
	// region policy credits coverage novelty and cost samples to.
	region   int
	variants []variantResult
	// sites is the sorted set of instrumentation sites the shard's
	// compilations hit — the coverage feedback the scheduler steers by.
	sites minicc.Snapshot
	// elapsedNs and ranVariants feed the adaptive-sizing cost model.
	elapsedNs   int64
	ranVariants int
	// obs carries the shard's locally-accumulated telemetry (stage
	// timing splits, cache stats deltas); nil when telemetry is off.
	obs *shardObs
}

// runEngine drives the scheduler → worker pool → aggregator pipeline.
// st carries the aggregator's merge state, pre-seeded by Resume.
func runEngine(ctx context.Context, cfg Config, st *aggState) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// the task sequence is derived up front (it is a pure function of the
	// config) so the scheduler can prioritize over the whole campaign;
	// tasks the checkpoint has already merged are excluded at startSeq
	planStart := time.Now()
	all, err := buildAllTasks(cfg)
	if err != nil {
		return nil, err
	}
	planTime := time.Since(planStart)
	sched := newScheduler(cfg, all, st.nextSeq, st.steer)
	for _, t := range all {
		if t.seq >= st.nextSeq {
			t.plan.remaining.Add(1) // the file's tasks this run will execute
		}
	}
	tel := cfg.Telemetry
	tel.campaignStarted(cfg, all, st.nextSeq, planTime)
	tel.attachRegions(cfg, sched)
	st.tel = tel

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	batches := make(chan []*task, cfg.Workers)
	results := make(chan *taskResult, 2*cfg.Workers)

	// window bounds how far dispatch may run ahead of the aggregator's
	// merge cursor: each dispatched task takes a credit, each merged task
	// returns one. Its capacity doubles as the scheduler's reorder
	// horizon, so pending memory stays O(Lookahead) no matter how far the
	// priority policy strays from seq order.
	window := make(chan struct{}, cfg.Lookahead)

	var senders sync.WaitGroup

	// producer: drain the scheduler, grouping micro-shards into batches
	// sized toward the adaptive duration target (one credit per task;
	// batch extension only uses free credits, so a full window never
	// blocks the first dispatch)
	senders.Add(1)
	go func() {
		defer senders.Done()
		defer close(batches)
		for {
			select {
			case window <- struct{}{}:
			case <-ctx.Done():
				return
			}
			// only this goroutine acquires credits, so observing a full
			// window here means we hold the final one — pop must then
			// dispatch head-of-line to keep the merge cursor supplied
			t, ok := sched.pop(len(window) == cap(window))
			if !ok {
				return // everything dispatched; the spare credit is moot
			}
			batch := []*task{t}
			if target := sched.targetNs(); target > 0 {
				spent := sched.predictNs(t)
				for spent < target && len(batch) < maxBatch {
					select {
					case window <- struct{}{}:
					default:
						spent = target // window full: stop extending
						continue
					}
					t2, ok := sched.pop(len(window) == cap(window))
					if !ok {
						spent = target // drained; the spare credit is moot
						continue
					}
					batch = append(batch, t2)
					spent += sched.predictNs(t2)
				}
			}
			tel.observeDispatch(len(batch))
			select {
			case batches <- batch:
			case <-ctx.Done():
				return
			}
		}
	}()

	// worker pool: each task renders its shard's variants by unranking
	// their enumeration indices and runs the full differential pipeline
	for w := 0; w < cfg.Workers; w++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for batch := range batches {
				for _, t := range batch {
					if ctx.Err() != nil {
						continue // drain
					}
					r := runTask(ctx, cfg, t)
					t.plan.taskDone()
					select {
					case results <- r:
					case <-ctx.Done():
					}
				}
			}
		}()
	}

	// close results when the producer and every worker are done, so the
	// aggregator's range below always terminates
	go func() {
		senders.Wait()
		close(results)
	}()

	// aggregator: feed each arriving result back to the scheduler, then
	// reorder by seq and merge deterministically
	var firstErr error
	pending := make(map[int]*taskResult)
	for r := range results {
		if firstErr != nil {
			continue // drain
		}
		if r.err != nil {
			firstErr = r.err
			cancel()
			continue
		}
		point, novel, rp := sched.observe(r)
		if tel != nil {
			tel.observeSteering(sched.costSample(), point, novel, rp)
		}
		pending[r.seq] = r
		for {
			nr, ok := pending[st.nextSeq]
			if !ok {
				break
			}
			delete(pending, st.nextSeq)
			st.merge(cfg, nr)
			st.nextSeq++
			st.sinceCkpt++
			// widen the scheduler's horizon before returning the credit,
			// so a producer that wins the freed credit already sees the
			// advanced cursor (the pop invariant depends on this order)
			sched.advance(st.nextSeq)
			<-window
			if cfg.CheckpointPath != "" && st.sinceCkpt >= cfg.CheckpointEvery {
				var ckStart time.Time
				if tel != nil {
					ckStart = time.Now()
				}
				if err := writeCheckpoint(cfg, st, sched.steeringSnapshot()); err != nil {
					firstErr = err
					cancel()
					break
				}
				tel.observeCheckpoint(st.nextSeq, time.Since(ckStart))
				st.sinceCkpt = 0
			}
		}
		tel.observeAggregator(len(pending))
	}
	// every worker has exited; a canceled or failed run leaves tasks that
	// never finished, so drop whatever tables their files still hold
	for _, t := range all {
		if t.newFile {
			t.plan.release()
		}
	}
	tel.campaignDone()
	// context-driven shutdown persists the merged prefix: a SIGINT (or any
	// cancellation) should leave the latest state on disk instead of
	// abandoning up to CheckpointEvery-1 merged shards, so the resumed
	// campaign continues from exactly where the interrupted one stopped
	if ctx.Err() != nil && cfg.CheckpointPath != "" && st.sinceCkpt > 0 &&
		(firstErr == nil || errors.Is(firstErr, context.Canceled) || errors.Is(firstErr, context.DeadlineExceeded)) {
		if err := writeCheckpoint(cfg, st, sched.steeringSnapshot()); err == nil {
			st.sinceCkpt = 0
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep := st.finalize(cfg)
	rep.CoverageCurve = sched.curveSnapshot()
	// the plan schedule is a pure function of the config, so it is derived
	// fresh here (never checkpointed) and identical across resumes
	for _, t := range all {
		if t.newFile {
			rep.Plans = append(rep.Plans, t.plan.info())
		}
	}
	return rep, nil
}

// runTask processes one shard: the worker half of the pipeline. Alongside
// the differential results it reports the shard's wall-clock cost and the
// instrumentation sites its compilations hit — the feedback the scheduler
// steers by. The recorder is lenient so site-registry drift surfaces as a
// campaign error instead of a panicking worker.
//
// The per-variant work is AST-resident: the worker checks a Space out of
// the file's pool, and each enumeration index patches the Space's pooled
// template clone in place (Space.ProgramAt), so no variant is ever
// re-lexed, re-parsed, or re-analyzed. Source text is rendered lazily,
// only when a variant exhibits a symptom (to become a finding's test case)
// or when the -paranoid cross-check demands it. ForceRenderPath restores
// the historical render→re-parse pipeline for baselining.
//
// Alongside the Space, the worker checks out a backendState: the reference
// interpreter resets pooled machine state instead of reallocating it per
// variant, and minicc compiles through the file's IR-template cache (lower
// once per skeleton, patch the hole-dependent IR sites per fill). With
// Config.NoBackendReuse both backends run cold, byte-identically.
func runTask(ctx context.Context, cfg Config, t *task) *taskResult {
	res := &taskResult{seq: t.seq, plan: t.plan, newFile: t.newFile, region: t.region}
	if t.plan.skip {
		return res
	}
	start := time.Now()
	var cov *minicc.Coverage // nil receiver = no-op recorder
	if cfg.collectCoverage() {
		cov = minicc.NewLenientCoverage()
	}
	var be *backendState
	if t.plan.backends != nil {
		be = t.plan.backends.Get()
		defer t.plan.backends.Put(be)
	}
	// shard-local telemetry accumulator: plain ints touched on the variant
	// path, folded into the shared atomics once at merge. nil (and therefore
	// completely absent from the hot path) when telemetry is off.
	var so *shardObs
	if cfg.Telemetry != nil {
		so = &shardObs{}
		if be != nil {
			so.miniccBase = be.cache.Stats()
			so.refvmBase = be.ref.Stats()
		}
	}
	// shard-local classifier: attribution memo (seed-scoped: a task never
	// spans files)
	cl := newClassifier()
	if t.includeOriginal {
		res.variants = append(res.variants, evalSource(cfg, t.plan.src, be, cl, cov, so))
	}
	if t.toJ > t.fromJ {
		space := t.plan.pool.Get()
		defer t.plan.pool.Put(space)
		idx := new(big.Int)
		stride := big.NewInt(t.plan.stride)
		for j := t.fromJ; j < t.toJ; j++ {
			if ctx.Err() != nil {
				res.err = ctx.Err()
				return res
			}
			idx.SetInt64(j)
			idx.Mul(idx, stride)
			vr, err := runVariant(cfg, space, be, idx, cl, cov, so)
			if err != nil {
				res.err = fmt.Errorf("campaign: corpus[%d] variant %d: %w", t.plan.seedIdx, j, err)
				return res
			}
			res.variants = append(res.variants, vr)
		}
	}
	if err := cov.Err(); err != nil {
		res.err = fmt.Errorf("campaign: corpus[%d]: coverage registry drift: %w", t.plan.seedIdx, err)
		return res
	}
	if so != nil {
		if be != nil {
			so.minicc = be.cache.Stats().Sub(so.miniccBase)
			so.refvm = be.ref.Stats().Sub(so.refvmBase)
		}
		res.obs = so
	}
	res.sites = cov.Snapshot()
	res.elapsedNs = time.Since(start).Nanoseconds()
	res.ranVariants = len(res.variants)
	return res
}

// runVariant evaluates the variant at one enumeration index through the
// configured pipeline flavor.
func runVariant(cfg Config, space *spe.Space, be *backendState, idx *big.Int, cl *classifier, cov *minicc.Coverage, so *shardObs) (variantResult, error) {
	var t0 time.Time
	if so != nil {
		t0 = time.Now()
	}
	if cfg.ForceRenderPath {
		src, err := space.RenderAt(idx)
		if so != nil {
			so.instNs += time.Since(t0).Nanoseconds()
		}
		if err != nil {
			return variantResult{}, err
		}
		return evalSource(cfg, src, be, cl, cov, so), nil
	}
	in, release, err := space.AcquireAt(idx)
	if so != nil {
		so.instNs += time.Since(t0).Nanoseconds()
	}
	if err != nil {
		return variantResult{}, err
	}
	defer release()
	prog := in.Program()
	rendered := ""
	if cfg.Paranoid {
		if so != nil {
			so.paranoidChecks++
		}
		rendered = cc.PrintFile(prog.File)
		if err := crossCheckVariant(prog, rendered); err != nil {
			return variantResult{}, err
		}
	}
	render := func() string {
		if rendered != "" {
			return rendered
		}
		return cc.PrintFile(prog.File)
	}
	return evalProgram(cfg, prog, in.HoleIdents(), be, render, cl, cov, so)
}

// crossCheckVariant is the -paranoid equivalence assertion: the typed
// program the in-place instantiation produced must agree with what the
// historical pipeline would have built from its rendered text. Concretely,
// the text must parse and analyze cleanly, printing must be a fixed point,
// and — the core sema invariant — every variable use of the re-analyzed
// program must bind the symbol (by ID) that the rebinding chose, proving
// no hole patch ever escaped its scope or collided with shadowing.
func crossCheckVariant(prog *cc.Program, rendered string) error {
	file, err := cc.Parse(rendered)
	if err != nil {
		return fmt.Errorf("paranoid: rendered variant does not parse: %w", err)
	}
	reprog, err := cc.Analyze(file)
	if err != nil {
		return fmt.Errorf("paranoid: rendered variant does not analyze: %w", err)
	}
	if got := cc.PrintFile(reprog.File); got != rendered {
		return fmt.Errorf("paranoid: print is not a fixed point of parse+print")
	}
	if len(reprog.Uses) != len(prog.Uses) {
		return fmt.Errorf("paranoid: re-analysis found %d variable uses, instantiation has %d",
			len(reprog.Uses), len(prog.Uses))
	}
	for i, use := range prog.Uses {
		re := reprog.Uses[i]
		if use.Sym == nil || re.Sym == nil {
			return fmt.Errorf("paranoid: use %d unresolved (instantiated: %v, re-analyzed: %v)",
				i, use.Sym != nil, re.Sym != nil)
		}
		if use.Sym.ID != re.Sym.ID {
			return fmt.Errorf("paranoid: use %d (%q at %v) binds symbol %d in the instantiated program but %d after re-analysis",
				i, use.Name, use.Pos, use.Sym.ID, re.Sym.ID)
		}
	}
	return nil
}

// aggState is the aggregator's merge state: everything the campaign has
// learned from the ordered prefix of shard results merged so far. It is
// exactly what a checkpoint persists.
type aggState struct {
	nextSeq   int
	sinceCkpt int
	stats     Stats
	byKey     map[string]*Finding
	// attribution is the campaign-global (seed, version, opt, symptom
	// class) → bug memo, reduced from the shard-local memos by keeping the
	// first value in merge order.
	attribution map[string]string
	// steer is the scheduler steering (coverage frontier, cost model,
	// region scores) restored from a checkpoint; nil on a fresh campaign.
	steer *steering
	// tel mirrors Config.Telemetry for the merge path; nil-safe (every
	// *Telemetry method no-ops on a nil receiver) and never persisted.
	tel *Telemetry
}

func newAggState() *aggState {
	return &aggState{
		byKey:       make(map[string]*Finding),
		attribution: make(map[string]string),
		stats:       Stats{NaiveTotal: new(big.Int), CanonicalTotal: new(big.Int)},
	}
}

// merge folds one shard result into the state. Results arrive here in seq
// order, so every decision below (finding creation, sample test case,
// attribution memo) replays the sequential harness bit for bit.
func (st *aggState) merge(cfg Config, r *taskResult) {
	if r.newFile {
		st.stats.Files++
		st.stats.NaiveTotal.Add(st.stats.NaiveTotal, r.plan.naive)
		st.stats.CanonicalTotal.Add(st.stats.CanonicalTotal, r.plan.canonical)
		if r.plan.skip {
			st.stats.FilesSkipped++
		}
	}
	for i := range r.variants {
		vr := &r.variants[i]
		st.stats.Variants++
		switch vr.status {
		case statusParseFail:
			continue
		case statusUB:
			st.stats.VariantsUB++
			continue
		}
		st.stats.VariantsClean++
		st.stats.Executions += vr.executions
		for _, s := range vr.symptoms {
			st.applySymptom(r.plan.seedIdx, vr.src, s)
		}
	}
	st.tel.observeMerge(r)
}

// applySymptom replays one symptom record against the finding map — the
// aggregator half of the old classify.
func (st *aggState) applySymptom(seedIdx int, src string, s symptom) {
	record := func(kind minicc.BugKind, bugID, signature string) {
		key := "sig:" + signature
		if bugID != "" {
			key = "id:" + bugID
		}
		fd, ok := st.byKey[key]
		if !ok {
			fd = &Finding{
				BugID:     bugID,
				Kind:      kind,
				Signature: signature,
				TestCase:  src,
				SeedIndex: seedIdx,
			}
			if b, found := minicc.BugByID(bugID); found {
				fd.Component = b.Component
				fd.Priority = b.Priority
			}
			st.byKey[key] = fd
		}
		fd.Occurrences++
		fd.OptLevels = addUniqueInt(fd.OptLevels, s.Opt)
		fd.Versions = addUniqueStr(fd.Versions, s.Ver)
		st.tel.observeFinding(fd, !ok)
	}

	switch s.Class {
	case classCrash:
		record(minicc.BugCrash, s.BugID, s.Sig)
	case classPerfHang:
		record(minicc.BugPerformance, s.BugID, s.Sig)
	case classMismatch:
		// attribute by the campaign-global memo; the first record in merge
		// order per (seed, version, opt, class) seeds it with its
		// shard-local verdict
		memoKey := fmt.Sprintf("%d|%s|%d|%s", seedIdx, s.Ver, s.Opt, s.Coarse)
		bugID, cached := st.attribution[memoKey]
		if !cached {
			bugID = s.BugID
			st.attribution[memoKey] = bugID
		}
		sig := s.Sig
		if bugID == "" {
			// unattributed: dedupe by coarse class and seed to avoid a
			// finding per concrete wrong value
			sig = fmt.Sprintf("%s (seed %d): e.g. %s", s.Coarse, seedIdx, sig)
		}
		if bugID != "" {
			if b, found := minicc.BugByID(bugID); found && b.Kind == minicc.BugPerformance {
				record(minicc.BugPerformance, bugID, sig)
				return
			}
		}
		record(minicc.BugWrongCode, bugID, sig)
	}
}

// finalize turns the merged state into the Report.
func (st *aggState) finalize(cfg Config) *Report {
	rep := &Report{Config: cfg, Stats: st.stats}
	for _, fd := range st.byKey {
		if cfg.ReduceTestCases {
			reduceFinding(fd, cfg)
		}
		rep.Findings = append(rep.Findings, fd)
	}
	sortFindings(rep.Findings)
	for _, fd := range rep.Findings {
		switch fd.Kind {
		case minicc.BugCrash:
			rep.Stats.CrashFindings++
		case minicc.BugWrongCode:
			rep.Stats.WrongFindings++
		default:
			rep.Stats.PerfFindings++
		}
	}
	return rep
}

func addUniqueInt(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	s = append(s, v)
	sort.Ints(s)
	return s
}

func addUniqueStr(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	s = append(s, v)
	sort.Strings(s)
	return s
}
