package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"runtime"
	"time"

	"spe/internal/campaign"
	"spe/internal/cc"
	"spe/internal/minicc"
	"spe/internal/refvm"
	"spe/internal/skeleton"
	"spe/internal/spe"
)

func (r *runner) campaignConfig(files []string, workers int) campaign.Config {
	return campaign.Config{
		Corpus:             files,
		Versions:           r.w.versions,
		OptLevels:          []int{0, 1, 2, 3},
		Threshold:          -1,
		MaxVariantsPerFile: r.w.perFile,
		Schedule:           campaign.ScheduleFIFO,
		Workers:            workers,
	}
}

// campaignOutcome is what a campaign run must reproduce exactly: the digest
// of its report and its work counters.
type campaignOutcome struct {
	digest   string
	counters map[string]any
}

func outcomeOf(rep *campaign.Report) campaignOutcome {
	h := sha256.New()
	h.Write([]byte(rep.Format()))
	for _, f := range rep.Findings {
		h.Write([]byte{0})
		h.Write([]byte(f.TestCase))
	}
	st := rep.Stats
	return campaignOutcome{
		digest: hex.EncodeToString(h.Sum(nil)),
		counters: map[string]any{
			"files":            st.Files,
			"files_skipped":    st.FilesSkipped,
			"variants":         st.Variants,
			"ub":               st.VariantsUB,
			"clean":            st.VariantsClean,
			"executions":       st.Executions,
			"findings":         len(rep.Findings),
			"crash_findings":   st.CrashFindings,
			"wrong_findings":   st.WrongFindings,
			"perf_findings":    st.PerfFindings,
			"naive_total":      st.NaiveTotal.String(),
			"canonical_total":  st.CanonicalTotal.String(),
			"canonical_log2":   st.CanonicalTotal.BitLen(),
			"plans_walked_sum": walkedVariants(rep),
		},
	}
}

// walkedVariants counts the enumerated variants the report's plans walk.
func walkedVariants(rep *campaign.Report) int64 {
	var n int64
	for _, p := range rep.Plans {
		if !p.Skipped {
			n += p.Tested
		}
	}
	return n
}

// check compares got against the expected outcome.
func (want campaignOutcome) check(got campaignOutcome) error {
	if got.digest != want.digest {
		return fmt.Errorf("report digest %.16s, want %.16s (the Workers: 1 run)", got.digest, want.digest)
	}
	for k, v := range want.counters {
		if got.counters[k] != v {
			return fmt.Errorf("counter %s = %v, want %v", k, got.counters[k], v)
		}
	}
	return nil
}

// reference runs the workload's campaign on one worker. Its report is the
// expected outcome every other run of the same inputs must reproduce.
func (r *runner) reference(files []string) (campaignOutcome, bool) {
	var want campaignOutcome
	ok := r.op("reference campaign (Workers: 1)", func() error {
		rep, err := campaign.Run(r.campaignConfig(files, 1))
		if err != nil {
			return err
		}
		want = outcomeOf(rep)
		return nil
	})
	if r.opts.perturbDigest {
		want.digest = "perturbed-" + want.digest
	}
	for k, v := range want.counters {
		r.det.Counters[k] = v
	}
	return want, ok
}

// measureCampaign measures the end-to-end metrics of a campaign workload:
// campaign.Run at Workers = nproc, repeated over the configured seconds
// (see window). Each repetition first times a
// campaign.NewPlanner, the set-up, so set-up samples spread over the whole
// window like the runs they precede.
func (r *runner) measureCampaign(files []string) {
	var setups, vps, cpuPerK, rss []float64
	defer func() {
		r.setMedian("variants_per_sec", "1/s", vps)
		r.setMedian("setup_s", "s", setups)
		r.setMedian("cpu_s_per_kvariant", "s", cpuPerK)
		r.setMedian("peak_rss_mb", "MB", rss)
	}()
	want, ok := r.reference(files)
	if !ok {
		return
	}
	cfg := r.campaignConfig(files, r.opts.workers)
	for win := newWindow(r.opts.seconds); win.more(); {
		runtime.GC()
		r.op("setup (campaign.NewPlanner)", func() error {
			start := time.Now()
			_, err := campaign.NewPlanner(cfg)
			setups = append(setups, time.Since(start).Seconds())
			return err
		})
		settle()
		r.op("campaign.Run", func() error {
			cpu0, start := cpuTime(), time.Now()
			rep, err := campaign.Run(cfg)
			wall, cpu := time.Since(start), cpuTime()-cpu0
			if err != nil {
				return err
			}
			n := float64(rep.Stats.Variants)
			vps = append(vps, n/wall.Seconds())
			cpuPerK = append(cpuPerK, cpu.Seconds()/n*1000)
			rss = append(rss, peakRSSMB())
			return want.check(outcomeOf(rep))
		})
		if r.res.Failed > 0 && len(vps) == 0 {
			break // nothing completes: do not spin out the window
		}
	}
}

// layerTimes accumulates the traced per-layer spans of a campaign.
type layerTimes struct {
	acquire, cachedRun, lower, compile, exec time.Duration
	oracle                                   [3]time.Duration // by verdict class
	oracleRuns, oracleSteps                  [3]int64
	walked, execRuns, execSteps, timeouts    int64
	executions, stepMismatches               int64
}

// Oracle verdict classes.
const (
	classClean = iota
	classUB
	classLimit
)

var classNames = [3]string{"clean", "ub", "limit"}

// traceCampaign is the traced per-layer run of a campaign workload, on one
// goroutine. It times the set-up layers file by file and runs the reference
// campaign. Then it drives the same campaign through Planner.RunSpec and
// RemoteEngine.NextTask / Deliver / Finalize with a timer around each call,
// and runs it once more untraced on one worker, the baseline of the tracing
// overhead. Last it walks exactly the variant indices in Report.Plans
// through spe, refvm and minicc with a timer around each layer's call.
func (r *runner) traceCampaign(files []string) {
	skels := r.traceSetup(files)
	want, ok := r.reference(files)
	if !ok {
		return
	}
	cfg := r.campaignConfig(files, 1)

	var (
		rep                                     *campaign.Report
		resolved                                campaign.Config
		setup, dispatch, shard, merge, finalize time.Duration
		shards                                  int64
		total                                   time.Duration
		before, after                           goCounters
		heap                                    = newHeapSampler()
	)
	runtime.GC()
	r.op("traced campaign (RunSpec/Deliver)", func() error {
		before = readGoCounters()
		start := time.Now()
		planner, err := campaign.NewPlanner(cfg)
		if err != nil {
			return err
		}
		plannerTime := time.Since(start)
		resolved = planner.Config()
		t := time.Now()
		eng, err := campaign.NewRemoteEngine(cfg)
		if err != nil {
			return err
		}
		setup = time.Since(t)
		ctx := context.Background()
		for {
			t = time.Now()
			spec, ok := eng.NextTask()
			dispatch += time.Since(t)
			if !ok {
				break
			}
			t = time.Now()
			res, err := planner.RunSpec(ctx, spec)
			shard += time.Since(t)
			if err != nil {
				return err
			}
			t = time.Now()
			_, err = eng.Deliver(res)
			merge += time.Since(t)
			if err != nil {
				return err
			}
			shards++
			heap.sample()
		}
		t = time.Now()
		rep, err = eng.Finalize()
		finalize = time.Since(t)
		// the worker half derives its own plan; an in-process run derives
		// it once, so the traced total leaves that copy out
		total = time.Since(start) - plannerTime
		after = readGoCounters()
		if err != nil {
			return err
		}
		return want.check(outcomeOf(rep))
	})
	if rep == nil {
		return
	}
	// the baseline of the tracing overhead runs warm, like the traced run
	var untraced time.Duration
	runtime.GC()
	r.op("untraced campaign (Workers: 1)", func() error {
		start := time.Now()
		rep, err := campaign.Run(cfg)
		untraced = time.Since(start)
		if err != nil {
			return err
		}
		return want.check(outcomeOf(rep))
	})

	var lt layerTimes
	r.op("layer walk over Report.Plans", func() error {
		return r.walkPlans(rep, skels, resolved, &lt)
	})

	variants := int64(rep.Stats.Variants)
	named := setup + dispatch + merge + finalize + lt.acquire + lt.oracle[0] + lt.oracle[1] + lt.oracle[2] + lt.cachedRun
	r.set("campaign.shard_ns_per_variant", "ns", perUnit(ns(shard), variants))
	r.set("campaign.merge_ns_per_shard", "ns", perUnit(ns(merge), shards))
	r.set("campaign.finalize_ms", "ms", ms(finalize))
	r.set("campaign.residual_ns_per_variant", "ns",
		perUnit(ns(shard-lt.acquire-lt.oracle[0]-lt.oracle[1]-lt.oracle[2]-lt.cachedRun), variants))
	r.set("trace.overhead_pct", "%", (total.Seconds()/untraced.Seconds()-1)*100)
	r.set("trace.unattributed_pct", "%", float64(total-named)/float64(total)*100)
	r.set("go.allocs_per_variant", "count", perUnit(float64(after.mallocs-before.mallocs), variants))
	r.set("go.gc_cycles", "count", float64(after.gcs-before.gcs))
	r.set("go.heap_peak_mb", "MB", heap.peakMB())
	r.reportLayers(&lt)
	r.set("spe.render_ns_per_variant", "ns", 0) // campaigns unrank; nothing enumerates
	r.setWork(variants, int64(rep.Stats.VariantsUB), int64(rep.Stats.VariantsClean),
		int64(rep.Stats.Executions), int64(len(rep.Findings)))
	r.det.Counters["trace_total_ms"] = ms(total)
	r.det.Counters["untraced_workers1_ms"] = ms(untraced)
}

// walkPlans re-executes every variant the campaign tested, layer by layer:
// spe.Space.AcquireAt, refvm.Cache.Run, then for each clean variant and
// compiler configuration minicc's Compiler.RunCached (the campaign's path)
// and a cold Lower, Compile and Execute that split the backend into its
// stages. cfg is the campaign's resolved config. The walk's verdict counts
// must reproduce the campaign's.
func (r *runner) walkPlans(rep *campaign.Report, skels []*skeleton.Skeleton, cfg campaign.Config, lt *layerTimes) error {
	originals := int64(0)
	idx := new(big.Int)
	for _, p := range rep.Plans {
		if p.Skipped {
			continue
		}
		originals++
		space, err := spe.NewSpace(skels[p.SeedIndex], spe.Options{Mode: spe.ModeCanonical, Granularity: cfg.Granularity})
		if err != nil {
			return err
		}
		oracle, backend := refvm.NewCache(), minicc.NewCache()
		for j := int64(0); j < p.Tested; j++ {
			idx.SetInt64(j * p.Stride)
			t := time.Now()
			in, release, err := space.AcquireAt(idx)
			lt.acquire += time.Since(t)
			if err != nil {
				return fmt.Errorf("corpus[%d] variant %d: %w", p.SeedIndex, j, err)
			}
			prog, holes := in.Program(), in.HoleIdents()
			t = time.Now()
			ref := oracle.Run(prog, holes, refvm.Config{MaxSteps: cfg.Steps})
			d := time.Since(t)
			class := classClean
			switch {
			case ref.UB != nil:
				class = classUB
			case ref.Limit != nil:
				class = classLimit
			}
			lt.oracle[class] += d
			lt.oracleRuns[class]++
			lt.oracleSteps[class] += ref.Steps
			lt.walked++
			if class == classClean {
				if err := walkBackends(prog, holes, ref.Steps*20+50_000, cfg, backend, lt); err != nil {
					release()
					return fmt.Errorf("corpus[%d] variant %d: %w", p.SeedIndex, j, err)
				}
			}
			release()
		}
	}
	// every file's original rides in its first shard and is UB-free
	if got, want := lt.walked+originals, int64(rep.Stats.Variants); got != want {
		return fmt.Errorf("walk covered %d variants with originals, campaign %d", got, want)
	}
	if got, want := lt.oracleRuns[classUB]+lt.oracleRuns[classLimit], int64(rep.Stats.VariantsUB); got != want {
		return fmt.Errorf("walk found %d UB or budget-exhausted variants, campaign %d", got, want)
	}
	return nil
}

// walkBackends runs one clean variant through every compiler configuration.
func walkBackends(prog *cc.Program, holes []*cc.Ident, execSteps int64, cfg campaign.Config, cache *minicc.Cache, lt *layerTimes) error {
	ecfg := minicc.ExecConfig{MaxSteps: execSteps}
	for _, ver := range cfg.Versions {
		for _, opt := range cfg.OptLevels {
			comp := &minicc.Compiler{Version: ver, Opt: opt, Seeded: true}
			lt.executions++
			t := time.Now()
			ro, err := comp.RunCached(cache, prog, holes, ecfg, false)
			lt.cachedRun += time.Since(t)
			if err != nil {
				return err
			}
			// the outcome aliases the cache's scratch until the next call
			cachedOk, cachedExec := ro.Compile.Ok(), ro.Exec

			bugs := minicc.BugsFor(minicc.VersionIndex(ver), opt)
			t = time.Now()
			_, _ = minicc.Lower(prog, bugs, nil) // a failed lowering is a finding, timed all the same
			lt.lower += time.Since(t)
			t = time.Now()
			out := comp.Compile(prog)
			lt.compile += time.Since(t)
			if out.Ok() != cachedOk {
				return fmt.Errorf("%s: cached compile ok=%v, cold compile ok=%v", comp, cachedOk, out.Ok())
			}
			if !out.Ok() {
				continue
			}
			t = time.Now()
			ex := minicc.Execute(out.Program, bugs, nil, ecfg)
			lt.exec += time.Since(t)
			// the two compiles of one program should run the same code; -O3's
			// licm hoists in map order, so their step counts can differ
			if ex.Steps != cachedExec.Steps || ex.Timeout != cachedExec.Timeout {
				lt.stepMismatches++
			}
			lt.execRuns++
			lt.execSteps += ex.Steps
			if ex.Timeout {
				lt.timeouts++
			}
		}
	}
	return nil
}

// reportLayers reports the spe, refvm and minicc layer metrics of a walk.
func (r *runner) reportLayers(lt *layerTimes) {
	r.set("spe.acquire_ns_per_variant", "ns", perUnit(ns(lt.acquire), lt.walked))
	var allSteps int64
	for c, name := range classNames {
		r.set("refvm.runs."+name, "count", float64(lt.oracleRuns[c]))
		r.set("refvm.ns_per_run."+name, "ns", perUnit(ns(lt.oracle[c]), lt.oracleRuns[c]))
		r.set("refvm.steps_per_run."+name, "count", perUnit(float64(lt.oracleSteps[c]), lt.oracleRuns[c]))
		r.det.Counters["oracle_steps_"+name] = lt.oracleSteps[c]
		allSteps += lt.oracleSteps[c]
	}
	r.set("refvm.useful_step_ratio", "ratio", perUnit(float64(lt.oracleSteps[classClean]), allSteps))
	r.set("minicc.cached_run_ns", "ns", perUnit(ns(lt.cachedRun), lt.executions))
	r.set("minicc.lower_ns", "ns", perUnit(ns(lt.lower), lt.executions))
	r.set("minicc.passes_ns", "ns", perUnit(ns(lt.compile-lt.lower), lt.executions))
	r.set("minicc.exec_ns", "ns", perUnit(ns(lt.exec), lt.execRuns))
	r.set("minicc.exec_steps_per_run", "count", perUnit(float64(lt.execSteps), lt.execRuns))
	r.set("minicc.exec_timeouts", "count", float64(lt.timeouts))
	r.set("minicc.cached_cold_step_mismatches", "count", float64(lt.stepMismatches))
	r.det.Counters["minicc_exec_steps"] = lt.execSteps
	r.det.Counters["minicc_exec_timeouts"] = lt.timeouts
}

// setWork reports the deterministic work counters of a traced run.
func (r *runner) setWork(variants, ub, clean, executions, findings int64) {
	r.set("work.variants", "count", float64(variants))
	r.set("work.ub", "count", float64(ub))
	r.set("work.clean", "count", float64(clean))
	r.set("work.executions", "count", float64(executions))
	r.set("work.findings", "count", float64(findings))
}

// traceSetup times the set-up layers file by file: cc.Parse + cc.Analyze,
// skeleton.Build and the canonical spe.Count. It returns the skeletons.
func (r *runner) traceSetup(files []string) []*skeleton.Skeleton {
	skels := make([]*skeleton.Skeleton, len(files))
	var parse, build, count []float64
	r.op("traced set-up", func() error {
		for i, src := range files {
			t := time.Now()
			f, err := cc.Parse(src)
			if err != nil {
				return fmt.Errorf("corpus[%d]: %w", i, err)
			}
			prog, err := cc.Analyze(f)
			parse = append(parse, ms(time.Since(t)))
			if err != nil {
				return fmt.Errorf("corpus[%d]: %w", i, err)
			}
			t = time.Now()
			sk, err := skeleton.Build(prog)
			build = append(build, ms(time.Since(t)))
			if err != nil {
				return fmt.Errorf("corpus[%d]: %w", i, err)
			}
			t = time.Now()
			spe.Count(sk, spe.Options{Mode: spe.ModeCanonical})
			count = append(count, ms(time.Since(t)))
			skels[i] = sk
		}
		return nil
	})
	r.setPerFile(parse, build, count)
	return skels
}

// setPerFile reports the median and maximum per-file times of the set-up
// layers.
func (r *runner) setPerFile(parse, build, count []float64) {
	for _, m := range []struct {
		name    string
		samples []float64
	}{
		{"cc.parse_analyze_ms_per_file", parse},
		{"skeleton.build_ms_per_file", build},
		{"spe.count_canonical_ms_per_file", count},
	} {
		med, mx := medianMax(m.samples)
		r.set(m.name+".median", "ms", med)
		r.set(m.name+".max", "ms", mx)
	}
}
