package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	workers int
	// perturbDigest corrupts every expected digest, so each checked
	// operation must count as failed (the benchmark's own test uses it).
	perturbDigest bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spread is a metric's distribution over the samples of one run.
type spread struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
}

// detail is the record printed just before the result.
type detail struct {
	Provenance map[string]any    `json:"provenance"`
	Workload   map[string]any    `json:"workload"`
	Spreads    map[string]spread `json:"spreads,omitempty"`
	Counters   map[string]any    `json:"counters"`
	Errors     []string          `json:"errors,omitempty"`
}

// runner accumulates one run's operations, metrics and counters.
type runner struct {
	w    workload
	opts options
	res  result
	det  detail
}

func newRunner(w workload, opts options) *runner {
	return &runner{
		w:    w,
		opts: opts,
		res:  result{Metrics: make(map[string]metric)},
		det:  detail{Spreads: make(map[string]spread), Counters: make(map[string]any)},
	}
}

// op runs one checked operation. An error, a panic or a failed check
// counts the operation as failed; the run goes on either way.
func (r *runner) op(what string, f func() error) bool {
	r.res.Attempted++
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
			}
		}()
		return f()
	}()
	if err != nil {
		r.res.Failed++
		msg := fmt.Sprintf("%s: %v", what, err)
		r.det.Errors = append(r.det.Errors, msg)
		fmt.Fprintln(os.Stderr, "perfbench:", msg)
		return false
	}
	return true
}

// set reports one metric with its value. A value left undefined by a
// failed operation (already counted as failed) reads 0.
func (r *runner) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// setMedian reports the median of samples and records their spread.
func (r *runner) setMedian(name, unit string, samples []float64) {
	s := spreadOf(samples, unit)
	s.Samples = samples
	r.det.Spreads[name] = s
	r.set(name, unit, s.Median)
}

// finish closes the run: success rate, correctness and the detail record.
func (r *runner) finish() (result, detail) {
	if !r.opts.trace {
		ok := 0.0
		if r.res.Attempted > 0 {
			ok = float64(r.res.Attempted-r.res.Failed) / float64(r.res.Attempted)
		}
		r.set("success_rate", "ratio", ok)
	}
	r.res.Correct = r.res.Failed == 0 && r.res.Attempted > 0
	r.det.Provenance = provenance(r.opts)
	r.det.Workload = map[string]any{
		"name":        r.w.name,
		"why":         r.w.why,
		"seed":        r.opts.seed,
		"corpus_seed": r.w.corpusSeed,
		"trace":       r.opts.trace,
	}
	return r.res, r.det
}

// spreadOf returns the median and quartiles of samples, the quartiles as
// Python's statistics.quantiles(samples, n=4) computes them.
func spreadOf(samples []float64, unit string) spread {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	out := spread{N: n, Unit: unit}
	switch {
	case n == 0:
		return out
	case n == 1:
		out.Median, out.Q1, out.Q3 = s[0], s[0], s[0]
		return out
	}
	if n%2 == 1 {
		out.Median = s[n/2]
	} else {
		out.Median = (s[n/2-1] + s[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	out.Q1, out.Q3 = q(1), q(3)
	return out
}

// minReps is the fewest repetitions a run measures, so that set-up time
// and every other end-to-end metric are medians of at least three samples.
const minReps = 3

// window paces a run's timed repetitions: at least minReps of them, and
// after that as many as end nearest to the configured seconds, so that a
// run measures about that long instead of up to one repetition longer.
type window struct {
	start time.Time
	span  time.Duration
	reps  int
}

func newWindow(seconds float64) *window {
	return &window{start: time.Now(), span: time.Duration(seconds * float64(time.Second))}
}

// more reports whether to start another repetition: one that, taking the
// mean time of those before it, ends no later than half of it past the
// window.
func (w *window) more() bool {
	if w.reps >= minReps {
		elapsed := time.Since(w.start)
		if elapsed+elapsed/time.Duration(2*w.reps) > w.span {
			return false
		}
	}
	w.reps++
	return true
}

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settle returns freed memory to the OS and restarts the kernel's record
// of the peak resident set size, so that each repetition starts from the
// same heap and the peak read after it is its own.
func settle() {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return // the peak then covers the whole process
	}
	defer f.Close()
	_, _ = f.Write([]byte("5")) // 5 resets VmHWM (proc(5)); best effort
}

// peakRSSMB returns the peak resident set size in MiB since the last
// settle, or since the process started where the peak cannot be reset.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapSampler tracks the peak live heap at the points it is sampled.
type heapSampler struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapSampler) sample() {
	metrics.Read(h.s)
	if h.s[0].Value.Kind() == metrics.KindUint64 {
		if v := h.s[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
}

func (h *heapSampler) peakMB() float64 { return float64(h.peak) / (1 << 20) }

// goCounters snapshots the allocation and GC counters.
type goCounters struct{ mallocs, gcs uint64 }

func readGoCounters() goCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goCounters{mallocs: ms.Mallocs, gcs: uint64(ms.NumGC)}
}

// provenance identifies the code and machine a result was measured on.
func provenance(opts options) map[string]any {
	sha := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				sha = s.Value
			}
		}
	}
	return map[string]any{
		"git_sha":    sha,
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"workers":    opts.workers,
		"cpu_model":  cpuModel(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// ms and ns convert durations to the reported units.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func ns(d time.Duration) float64 { return float64(d) }

// perUnit divides, reporting 0 for an empty denominator.
func perUnit(total float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// medianMax returns the median and the maximum of samples.
func medianMax(samples []float64) (float64, float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	s := spreadOf(samples, "")
	mx := samples[0]
	for _, v := range samples {
		if v > mx {
			mx = v
		}
	}
	return s.Median, mx
}
