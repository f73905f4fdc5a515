package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/plasma-hpc/dsmcpic/internal/core"
	"github.com/plasma-hpc/dsmcpic/internal/mesh"
)

// tiny is a seconds-long stand-in for the real workloads: same code path,
// small mesh and population.
var tiny = workload{
	name:  "tiny",
	meshN: 2, meshNZ: 3, radius: 0.05, length: 0.2,
	injectH: 300, injectIon: 30, weightH: 1e12, weightIon: 6000, dt: 1.2586e-6,
	ranks: 2, workers: 1,
	warmup: 3, nominalStepS: 1,
}

// tinyTimed is short of the 100 steps a p90 needs, so it is withheld.
const tinyTimed = 12

var (
	nameGrammar = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitGrammar = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var wantE2E, wantLayer []metricDef
	for _, m := range bf.EndToEnd {
		wantE2E = append(wantE2E, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		wantLayer = append(wantLayer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(wantE2E, endToEndMetrics) {
		t.Errorf("end_to_end in BENCHMARK.json %v, printed %v", wantE2E, endToEndMetrics)
	}
	if !reflect.DeepEqual(wantLayer, perLayerMetrics()) {
		t.Errorf("per_layer in BENCHMARK.json %v, printed %v", wantLayer, perLayerMetrics())
	}
	var names []string
	for _, w := range bf.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
		names = append(names, w.Name)
	}
	for _, m := range append(slices.Clone(wantE2E), wantLayer...) {
		names = append(names, m.name)
		if !unitGrammar.MatchString(m.unit) {
			t.Errorf("%s: unit %q breaks the unit grammar", m.name, m.unit)
		}
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !nameGrammar.MatchString(n) || seen[n] {
			t.Errorf("name %q breaks the name grammar or repeats", n)
		}
		seen[n] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
}

func TestPrintedMetricsAreTheDeclaredOnes(t *testing.T) {
	for _, trace := range []bool{false, true} {
		res, err := execute(tiny, 1, tinyTimed, trace, env{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("trace=%v: tiny run failed its checks: %+v", trace, res)
		}
		want := endToEndMetrics
		if trace {
			// Twelve timed steps leave one beyond the 90th percentile.
			want = slices.DeleteFunc(perLayerMetrics(), func(d metricDef) bool { return d.name == "step_s_p90" })
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace=%v: printed %d metrics, want %d", trace, len(res.Metrics), len(want))
		}
		for _, d := range want {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("trace=%v: %s printed as %+v (present %v), want unit %s", trace, d.name, m, ok, d.unit)
			}
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %g", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	if p, ok := percentile(xs, 0.9, 10); p != 90 || !ok {
		t.Errorf("p90 of 1..100 = %g, %v; want 90 with ten beyond", p, ok)
	}
	if p, ok := percentile(xs[:99], 0.9, 10); ok {
		t.Errorf("p90 of 99 samples reported (%g) with only nine beyond", p)
	}
	if p, ok := percentile([]float64{5, 1, 3}, 0.5, 1); p != 3 || !ok {
		t.Errorf("p50 of {1,3,5} = %g, %v", p, ok)
	}
}

func TestBrokenCheckCountsAsFailedRun(t *testing.T) {
	// Move one of rank 0's particles into a cell rank 1 owns: the
	// placement check must catch it, count the run as failed and still
	// report every metric.
	var log strings.Builder
	e := env{log: &log}
	e.probe = func(step int, s *core.Solver) {
		if s.Comm.Rank() != 0 || s.St.Len() == 0 {
			return
		}
		for c, o := range s.Owner() {
			if o == 1 {
				s.St.Cell[0] = int32(c)
				return
			}
		}
	}
	res, err := execute(tiny, 1, tinyTimed, false, e)
	if err != nil {
		t.Fatalf("a failed check aborted the benchmark: %v", err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 1 {
		t.Errorf("broken placement: correct=%v failed=%d attempted=%d, want false 1 1", res.Correct, res.Failed, res.Attempted)
	}
	if _, ok := res.Metrics["step_s_p50"]; !ok {
		t.Error("failed run printed no metrics")
	}
	if !strings.Contains(log.String(), "particles outside its owned cells") {
		t.Errorf("failure not attributed to the placement check:\n%s", log.String())
	}
}

func TestSeedReachesSolverOnlyThroughInputs(t *testing.T) {
	coarse, err := mesh.Nozzle(tiny.meshN, tiny.meshNZ, tiny.radius, tiny.length)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mesh.RefineUniform(coarse)
	if err != nil {
		t.Fatal(err)
	}
	steps := tiny.warmup + tinyTimed
	a, b := caseConfig(tiny, ref, 7, steps), caseConfig(tiny, ref, 8, steps)
	if a.Seed == b.Seed {
		t.Fatal("workload seeds 7 and 8 generate the same simulation seed")
	}
	if !reflect.DeepEqual(a, caseConfig(tiny, ref, 7, steps)) {
		t.Fatal("the same workload seed generated different inputs")
	}
	// Apart from the generated simulation seed, the inputs are identical...
	b.Seed = a.Seed
	if !reflect.DeepEqual(a, b) {
		t.Fatal("workload seed changes inputs other than the simulation seed")
	}
	// ...and with identical generated inputs the outcome is identical:
	// the workload seed has no other way into the run.
	clock := func() int64 { return 0 }
	ra := runTimed(a, tiny.ranks, tiny.warmup, tinyTimed, clock, runOpts{})
	rb := runTimed(b, tiny.ranks, tiny.warmup, tinyTimed, clock, runOpts{})
	if ra.err != nil || rb.err != nil {
		t.Fatal(ra.err, rb.err)
	}
	if !reflect.DeepEqual(ra.fingerprint(), rb.fingerprint()) {
		t.Error("identical generated inputs gave different outcomes")
	}
	rc := runTimed(caseConfig(tiny, ref, 8, steps), tiny.ranks, tiny.warmup, tinyTimed, clock, runOpts{})
	if reflect.DeepEqual(ra.fingerprint(), rc.fingerprint()) {
		t.Error("different workload seeds gave identical outcomes")
	}
}

func TestFingerprintRecordCatchesDrift(t *testing.T) {
	e := env{outDir: t.TempDir(), binaryID: "test"}
	f := fingerprint{Particles: []int{1, 2}, CGIters: 3, Traffic: map[string][2]int64{"x": {1, 8}}, ModeledStepS: 0.5}
	if err := e.matchRecord("w", 1, 2, f); err != nil {
		t.Fatal(err)
	}
	if err := e.matchRecord("w", 1, 2, f); err != nil {
		t.Errorf("same outcome rejected: %v", err)
	}
	f.CGIters++
	if err := e.matchRecord("w", 1, 2, f); err == nil {
		t.Error("changed outcome accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},              // step
		{ID: 2, Parent: 1, Start: 10, End: 60},   // rank 0 phase
		{ID: 3, Parent: 1, Start: 40, End: 80},   // rank 1 phase, overlaps rank 0
		{ID: 4, Parent: 2, Start: 20, End: 30},   // nested in span 2
		{ID: 5, Parent: 3, Start: 70, End: 200},  // sticks out of its parent
		{ID: 6, Parent: 0, Start: 500, End: 500}, // empty root
	}
	want := []int64{30, 40, 30, 10, 130, 0}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}
