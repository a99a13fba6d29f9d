package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/big"
	"runtime"
	"time"

	"spe/internal/cc"
	"spe/internal/skeleton"
	"spe/internal/spe"
)

// enumOutcome is what every pass over the enumerate corpus must reproduce:
// the three count totals and a digest of the rendered variant stream.
type enumOutcome struct {
	naive, paper, canonical *big.Int
	rendered                int64
	digest                  string
}

func newEnumOutcome() enumOutcome {
	return enumOutcome{naive: new(big.Int), paper: new(big.Int), canonical: new(big.Int)}
}

func (want enumOutcome) check(got enumOutcome) error {
	switch {
	case got.naive.Cmp(want.naive) != 0:
		return fmt.Errorf("naive total %s, want %s", got.naive, want.naive)
	case got.paper.Cmp(want.paper) != 0:
		return fmt.Errorf("paper total %s, want %s", got.paper, want.paper)
	case got.canonical.Cmp(want.canonical) != 0:
		return fmt.Errorf("canonical total %s, want %s", got.canonical, want.canonical)
	case got.rendered != want.rendered:
		return fmt.Errorf("rendered %d variants, want %d", got.rendered, want.rendered)
	case got.digest != want.digest:
		return fmt.Errorf("rendered stream digest %.16s, want %.16s", got.digest, want.digest)
	}
	return nil
}

func (o enumOutcome) counters() map[string]any {
	return map[string]any{
		"rendered":        o.rendered,
		"naive_total":     o.naive.String(),
		"paper_total":     o.paper.String(),
		"canonical_total": o.canonical.String(),
		"canonical_log2":  o.canonical.BitLen(),
	}
}

// writeVariant adds one rendered variant to a stream digest.
func writeVariant(h hash.Hash, file int, src string) {
	fmt.Fprintf(h, "%d\x00%s\x00", file, src)
}

func analyze(src string) (*skeleton.Skeleton, error) {
	f, err := cc.Parse(src)
	if err != nil {
		return nil, err
	}
	prog, err := cc.Analyze(f)
	if err != nil {
		return nil, err
	}
	return skeleton.Build(prog)
}

// enumReference computes the expected outcome by a second path: the
// canonical count from spe.Space's rankers and each rendered variant by
// random-access unranking (Space.RenderAt) instead of the sequential walk.
func (r *runner) enumReference(files []string) (enumOutcome, bool) {
	want := newEnumOutcome()
	ok := r.op("reference pass (spe.Space)", func() error {
		h := sha256.New()
		idx := new(big.Int)
		for i, src := range files {
			sk, err := analyze(src)
			if err != nil {
				return fmt.Errorf("corpus[%d]: %w", i, err)
			}
			want.naive.Add(want.naive, spe.Count(sk, spe.Options{Mode: spe.ModeNaive}))
			want.paper.Add(want.paper, spe.Count(sk, spe.Options{Mode: spe.ModePaper}))
			space, err := spe.NewSpace(sk, spe.Options{Mode: spe.ModeCanonical})
			if err != nil {
				return fmt.Errorf("corpus[%d]: %w", i, err)
			}
			total := space.Total()
			want.canonical.Add(want.canonical, total)
			n := int64(r.w.perFile)
			if total.IsInt64() && total.Int64() < n {
				n = total.Int64()
			}
			for j := int64(0); j < n; j++ {
				src, err := space.RenderAt(idx.SetInt64(j))
				if err != nil {
					return fmt.Errorf("corpus[%d] variant %d: %w", i, j, err)
				}
				writeVariant(h, i, src)
			}
			want.rendered += n
		}
		want.digest = hex.EncodeToString(h.Sum(nil))
		return nil
	})
	if r.opts.perturbDigest {
		want.digest = "perturbed-" + want.digest
	}
	for k, v := range want.counters() {
		r.det.Counters[k] = v
	}
	return want, ok
}

// enumSpans are the per-call timings of one pass over the corpus.
type enumSpans struct {
	perFile                       bool      // record the per-file samples
	parse, build, count           []float64 // ms per file
	setup, otherCounts, enumerate time.Duration
}

// enumPass is what `spe count` and `spe enumerate` do for every file:
// parse, analyze, build the skeleton, count in all three modes, then
// render the canonical variants in sequence up to the per-file cap.
func (r *runner) enumPass(files []string, sp *enumSpans, heap *heapSampler) (enumOutcome, error) {
	got := newEnumOutcome()
	h := sha256.New()
	canonical := spe.Options{Mode: spe.ModeCanonical}
	for i, src := range files {
		t := time.Now()
		f, err := cc.Parse(src)
		if err != nil {
			return got, fmt.Errorf("corpus[%d]: %w", i, err)
		}
		prog, err := cc.Analyze(f)
		t1 := time.Now()
		if err != nil {
			return got, fmt.Errorf("corpus[%d]: %w", i, err)
		}
		sk, err := skeleton.Build(prog)
		t2 := time.Now()
		if err != nil {
			return got, fmt.Errorf("corpus[%d]: %w", i, err)
		}
		got.canonical.Add(got.canonical, spe.Count(sk, canonical))
		t3 := time.Now()
		got.naive.Add(got.naive, spe.Count(sk, spe.Options{Mode: spe.ModeNaive}))
		got.paper.Add(got.paper, spe.Count(sk, spe.Options{Mode: spe.ModePaper}))
		t4 := time.Now()
		n, err := spe.Enumerate(sk, canonical, func(v spe.Variant) bool {
			writeVariant(h, i, v.Source)
			return v.Index+1 < r.w.perFile
		})
		t5 := time.Now()
		if err != nil {
			return got, fmt.Errorf("corpus[%d]: %w", i, err)
		}
		got.rendered += int64(n)
		sp.setup += t3.Sub(t)
		sp.otherCounts += t4.Sub(t3)
		sp.enumerate += t5.Sub(t4)
		if sp.perFile {
			sp.parse = append(sp.parse, ms(t1.Sub(t)))
			sp.build = append(sp.build, ms(t2.Sub(t1)))
			sp.count = append(sp.count, ms(t3.Sub(t2)))
		}
		if heap != nil {
			heap.sample()
		}
	}
	got.digest = hex.EncodeToString(h.Sum(nil))
	return got, nil
}

// measureEnumerate measures the end-to-end metrics of the enumerate
// workload: whole passes repeated over the configured seconds (see
// window). Set-up time
// is each pass's parse, analyze, skeleton.Build and canonical counting.
func (r *runner) measureEnumerate(files []string) {
	var vps, setups, cpuPerK, rss []float64
	defer func() {
		r.setMedian("variants_per_sec", "1/s", vps)
		r.setMedian("setup_s", "s", setups)
		r.setMedian("cpu_s_per_kvariant", "s", cpuPerK)
		r.setMedian("peak_rss_mb", "MB", rss)
	}()
	want, ok := r.enumReference(files)
	if !ok {
		return
	}
	for win := newWindow(r.opts.seconds); win.more(); {
		settle()
		r.op("count+enumerate pass", func() error {
			var sp enumSpans
			cpu0, start := cpuTime(), time.Now()
			got, err := r.enumPass(files, &sp, nil)
			wall, cpu := time.Since(start), cpuTime()-cpu0
			if err != nil {
				return err
			}
			n := float64(got.rendered)
			vps = append(vps, n/wall.Seconds())
			setups = append(setups, sp.setup.Seconds())
			cpuPerK = append(cpuPerK, cpu.Seconds()/n*1000)
			rss = append(rss, peakRSSMB())
			return want.check(got)
		})
		if r.res.Failed > 0 && len(vps) == 0 {
			break
		}
	}
}

// traceEnumerate is the traced per-layer run of the enumerate workload: an
// untraced pass (the baseline of the tracing overhead), then a pass with a
// timer around every call into cc, skeleton and spe. The campaign layers
// do not run here; their metrics read 0.
func (r *runner) traceEnumerate(files []string) {
	want, ok := r.enumReference(files)
	if !ok {
		return
	}
	var untraced time.Duration
	runtime.GC()
	r.op("untraced pass", func() error {
		var sp enumSpans
		start := time.Now()
		got, err := r.enumPass(files, &sp, nil)
		untraced = time.Since(start)
		if err != nil {
			return err
		}
		return want.check(got)
	})
	sp := enumSpans{perFile: true}
	heap := newHeapSampler()
	var total time.Duration
	var before, after goCounters
	var got enumOutcome
	runtime.GC()
	r.op("traced pass", func() error {
		before = readGoCounters()
		start := time.Now()
		var err error
		got, err = r.enumPass(files, &sp, heap)
		total = time.Since(start)
		after = readGoCounters()
		if err != nil {
			return err
		}
		return want.check(got)
	})
	r.setPerFile(sp.parse, sp.build, sp.count)
	named := sp.setup + sp.otherCounts + sp.enumerate
	r.set("spe.render_ns_per_variant", "ns", perUnit(ns(sp.enumerate), got.rendered))
	r.set("trace.overhead_pct", "%", (total.Seconds()/untraced.Seconds()-1)*100)
	r.set("trace.unattributed_pct", "%", float64(total-named)/float64(total)*100)
	r.set("go.allocs_per_variant", "count", perUnit(float64(after.mallocs-before.mallocs), got.rendered))
	r.set("go.gc_cycles", "count", float64(after.gcs-before.gcs))
	r.set("go.heap_peak_mb", "MB", heap.peakMB())
	// nothing is executed: the campaign, oracle and compiler layers are idle
	r.reportLayers(&layerTimes{})
	for _, name := range []string{"campaign.shard_ns_per_variant", "campaign.merge_ns_per_shard",
		"campaign.residual_ns_per_variant"} {
		r.set(name, "ns", 0)
	}
	r.set("campaign.finalize_ms", "ms", 0)
	r.setWork(got.rendered, 0, 0, 0, 0)
	r.det.Counters["trace_total_ms"] = ms(total)
	r.det.Counters["untraced_pass_ms"] = ms(untraced)
	r.det.Counters["setup_ms"] = ms(sp.setup)
	r.det.Counters["other_counts_ms"] = ms(sp.otherCounts)
	r.det.Counters["enumerate_ms"] = ms(sp.enumerate)
}
