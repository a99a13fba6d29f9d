package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tiny shrinks a workload to a few files and variants.
func tiny(w workload) workload {
	w.withSeeds = false
	w.generated = 4
	w.perFile = 6
	if w.enumerate {
		w.perFile = 30
	}
	return w
}

func tinyOptions(trace bool) options {
	return options{seed: 7, seconds: 0.05, trace: trace, workers: 2}
}

func unitsOf(m map[string]metric) map[string]string {
	out := make(map[string]string, len(m))
	for name, v := range m {
		out[name] = v.Unit
	}
	return out
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	spec := readSpec(t)
	wantE2E := make(map[string]string)
	for _, m := range spec.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	wantLayer := make(map[string]string)
	for _, m := range spec.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := lookupWorkload(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not defined", sw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res, det := run(tiny(w), tinyOptions(trace))
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d errors=%v",
						trace, res.Correct, res.Attempted, res.Failed, det.Errors)
				}
				want := wantE2E
				if trace {
					want = wantLayer
				}
				if got := unitsOf(res.Metrics); !reflect.DeepEqual(got, want) {
					t.Errorf("trace=%v: metrics and units\n got %v\nwant %v", trace, got, want)
				}
				for name, m := range res.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("trace=%v: %s = %v", trace, name, m.Value)
					}
				}
				if !trace && res.Metrics["success_rate"].Value != 1 {
					t.Errorf("success_rate = %v, want 1", res.Metrics["success_rate"].Value)
				}
				for _, k := range []string{"git_sha", "go_version", "gomaxprocs", "nproc", "cpu_model"} {
					if _, ok := det.Provenance[k]; !ok {
						t.Errorf("provenance lacks %s", k)
					}
				}
				if det.Workload["why"] == "" || det.Workload["seed"] != int64(7) {
					t.Errorf("workload record %v lacks its why or seed", det.Workload)
				}
			}
		})
	}
}

func TestPerturbedDigestShowsInSuccessRate(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			opts := tinyOptions(false)
			opts.perturbDigest = true
			res, _ := run(tiny(w), opts)
			if res.Correct || res.Failed == 0 {
				t.Fatalf("perturbed digest: correct=%v failed=%d, want a failure", res.Correct, res.Failed)
			}
			if got := res.Metrics["success_rate"].Value; got >= 1 {
				t.Errorf("success_rate = %v, want below 1", got)
			}
		})
	}
}

// TestSeedsChangeInputsNotWork pins what the input seed does: it renames
// every variable, so the corpus text changes while the work counters of a
// run stay exactly the same.
func TestSeedsChangeInputsNotWork(t *testing.T) {
	w, _ := lookupWorkload("trunk_mix")
	w = tiny(w)
	a, err := corpusFor(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := corpusFor(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	again, err := corpusFor(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, again) {
		t.Fatal("the same seed gave different inputs")
	}
	for i := range a {
		if a[i] == b[i] {
			t.Errorf("corpus[%d] is the same under seeds 1 and 2", i)
		}
	}
	opts := tinyOptions(true)
	_, d1 := run(w, opts)
	opts.seed = 2
	_, d2 := run(w, opts)
	if !reflect.DeepEqual(workCounters(d1), workCounters(d2)) {
		t.Errorf("work counters differ between seeds:\n%v\n%v", d1.Counters, d2.Counters)
	}
}

// workCounters drops the timings from a detail's counters.
func workCounters(d detail) map[string]any {
	out := make(map[string]any)
	for k, v := range d.Counters {
		if len(k) < 3 || k[len(k)-3:] != "_ms" {
			out[k] = v
		}
	}
	return out
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := spreadOf([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, "s")
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("spreadOf = %+v", s)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	s = spreadOf([]float64{4, 1, 2}, "s")
	if s.Q1 != 1 || s.Median != 2 || s.Q3 != 4 {
		t.Errorf("spreadOf = %+v", s)
	}
}

func TestSpecNamesAreUnique(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
	}
	for _, m := range spec.PerLayer {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			t.Errorf("metric %s is named twice", names[i])
		}
	}
}
