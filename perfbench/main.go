// Command perfbench is the repository's performance benchmark. It drives
// the public Go API of the SPE pipeline from one process on three
// workloads (see workloads.go) and prints, as the last line of standard
// output, one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (throughput, set-up
// time, CPU per variant, peak RSS, success rate), measured with no timer
// inside the pipeline. With -trace 1 a separate single-goroutine run times
// every call into each layer's public functions from this package and
// reports the per-layer breakdown. The line before the result is a JSON
// detail record: provenance, the workload and why it was chosen, each
// metric's median, quartiles and sample count, and the deterministic work
// counters.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it from source first:
//
//	bash perfbench/run.sh --workload trunk_mix --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "how long the timed repetitions run")
	trace := flag.Int("trace", 0, "0 measures the end-to-end metrics, 1 the traced per-layer breakdown")
	corpusSeed := flag.Int64("corpus-seed", 0, "corpus generator seed (0 keeps the workload's default)")
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	if *corpusSeed != 0 {
		w.corpusSeed = *corpusSeed
	}
	workers := runtime.GOMAXPROCS(0) // no more campaign workers than nproc
	if n := runtime.NumCPU(); n < workers {
		workers = n
	}
	opts := options{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		workers: workers,
	}
	res, det := run(w, opts)
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(det); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := out.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark run of w and returns its result and detail.
func run(w workload, opts options) (result, detail) {
	r := newRunner(w, opts)
	files, err := corpusFor(w, opts.seed)
	if err != nil {
		r.op("corpus", func() error { return err })
		return r.finish()
	}
	switch {
	case w.enumerate && opts.trace:
		r.traceEnumerate(files)
	case w.enumerate:
		r.measureEnumerate(files)
	case opts.trace:
		r.traceCampaign(files)
	default:
		r.measureCampaign(files)
	}
	return r.finish()
}
