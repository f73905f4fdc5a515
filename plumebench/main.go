// Command plumebench is the repository's benchmark: wall time per DSMC
// step of a plasma plume on three named workloads, with output checks, and
// a traced pass that splits the same run into the solver's layers.
//
//	bash plumebench/run.sh --workload plume_particles --seed 1 --seconds 20 --trace 0
//
// Each invocation sets up the workload's case several times (setup_s is
// their median), runs warm-up steps until the population is flat, then
// times a fixed window of steps at rank 0's OnStep boundaries. --trace 1
// adds a second, traced run of the same window (the solver's metrics
// collector attached, the benchmark's own spans around every call) and a
// layer pass over the state captured at its end, and prints the
// per-layer metrics instead of the end-to-end ones. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// BENCHMARK.json at the repository root names every metric and workload;
// plumebench/README.md maps each layer metric to the end-to-end metric
// and workload it should move.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"time"

	"github.com/plasma-hpc/dsmcpic/internal/core"
	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/metrics"
)

// setupReps is how many times each invocation sets up the case.
const setupReps = 9

// env is what an invocation may touch besides the solver.
type env struct {
	// outDir receives the span file of a traced invocation and the
	// fingerprint records; "" writes nothing.
	outDir string
	// binaryID keys the fingerprint records: a record is only compared
	// against runs of the same binary. "" disables the records.
	binaryID string
	// probe is handed to every timed run (see runOpts.probe).
	probe func(step int, s *core.Solver)
	// log receives the human-readable summary.
	log io.Writer
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Uint64("seed", 1, "workload seed: the simulation seed is derived from it")
	seconds := flag.Int("seconds", 20, "measurement budget; fixes the number of timed steps")
	trace := flag.Int("trace", 0, "1: add the traced run and the layer pass, print per-layer metrics")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "plumebench:", err)
		os.Exit(2)
	}
	e := env{outDir: ".bench_out", binaryID: binaryID(), log: os.Stderr}
	res, err := execute(w, *seed, w.timedSteps(*seconds), *trace == 1, e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "plumebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "plumebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// binaryID hashes the running executable, or returns "" when it cannot
// be read.
func binaryID() string {
	path, err := os.Executable()
	if err != nil {
		return ""
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:6])
}

// execute runs one invocation: setups, the untraced run and, when
// tracing, the traced run and the layer pass. Failed checks are counted
// in the result; only a failed setup is returned as an error.
func execute(w workload, seed uint64, timed int, trace bool, e env) (*result, error) {
	epoch := time.Now()
	clock := func() int64 { return int64(time.Since(epoch)) }
	var t *tracer
	if trace {
		t = newTracer(epoch, fmt.Sprintf("%s/seed%d/traced", w.name, seed))
	}
	steps := w.warmup + timed
	// failures holds each failed run's errors, keyed by run; a set-up
	// failure counts against the first run, a layer-pass one against the
	// traced run it replays.
	failures := map[string]error{}
	fail := func(run string, err error) { failures[run] = errors.Join(failures[run], err) }
	attempted := 0

	// Set-up: mesh generation and refinement, then core.Prepare (the
	// initial partition and the Poisson assembly). The run starts from an
	// empty population, so there is nothing else to set up.
	setupS := make([]float64, setupReps)
	meshS := make([]float64, setupReps)
	var cfg core.Config // as resolved by core.Prepare
	var owner []int32
	for i := range setupS {
		// Each set-up starts from a collected heap, as in a fresh process,
		// instead of paying for the previous one's garbage.
		runtime.GC()
		setupSpan, endSetup := t.begin("setup", 0)
		start := clock()
		_, endNozzle := t.begin("mesh.Nozzle", setupSpan)
		coarse, err := mesh.Nozzle(w.meshN, w.meshNZ, w.radius, w.length)
		endNozzle()
		if err != nil {
			return nil, fmt.Errorf("mesh.Nozzle: %w", err)
		}
		_, endRefine := t.begin("mesh.RefineUniform", setupSpan)
		ref, err := mesh.RefineUniform(coarse)
		endRefine()
		meshDone := clock()
		if err != nil {
			return nil, fmt.Errorf("mesh.RefineUniform: %w", err)
		}
		_, endPrepare := t.begin("core.Prepare", setupSpan)
		shared, c, err := core.Prepare(caseConfig(w, ref, seed, steps), w.ranks)
		endPrepare()
		endSetup()
		if err != nil {
			return nil, fmt.Errorf("core.Prepare: %w", err)
		}
		setupS[i], meshS[i] = float64(clock()-start)/1e9, float64(meshDone-start)/1e9
		if i == 0 {
			cfg, owner = c, shared.Owner
		} else if !slices.Equal(owner, shared.Owner) {
			fail("untraced", errors.New("repeated set-up gave a different initial partition"))
		}
	}

	run := func(label string, o runOpts) (*timedRun, int) {
		runtime.GC()
		runSpan, endRun := t.begin("core.Run/"+label, 0)
		tr := runTimed(caseConfig(w, cfg.Ref, seed, steps), w.ranks, w.warmup, timed, clock, o)
		endRun()
		attempted++
		if err := tr.check(cfg.PoissonTol, cfg.PICSubsteps, o.collector); err != nil {
			fail(label, err)
		}
		return tr, runSpan
	}
	plain, _ := run("untraced", runOpts{probe: e.probe})
	var fp *fingerprint
	if plain.err == nil {
		f := plain.fingerprint()
		fp = &f
		if err := e.matchRecord(w.name, seed, timed, f); err != nil {
			fail("untraced", err)
		}
	}

	out, defs := endToEnd(plain, median(setupS)), endToEndMetrics
	if trace {
		defs = perLayerMetrics()
		collector := metrics.NewCollector(w.ranks, clock)
		tr, runSpan := run("traced", runOpts{collector: collector, capture: true, probe: e.probe})
		if tr.err == nil {
			if fp != nil && !reflect.DeepEqual(*fp, tr.fingerprint()) {
				fail("traced", errors.New("traced run differs from the untraced run (particles, CG iterations, traffic or modeled time)"))
			}
			for k, v := range traced(t, runSpan, tr, collector, cfg.PICSubsteps) {
				out[k] = v
			}
			out["trace.overhead"] = ratio(median(tr.stepSeconds()), median(plain.stepSeconds()))
		}
		if tr.checkpoint != nil {
			passSpan, endPass := t.begin("layer_pass", 0)
			lp := &layerPass{ref: cfg.Ref, cfg: cfg, cp: tr.checkpoint, ranks: w.ranks, workers: w.workers, tr: t, parent: passSpan}
			layer, err := lp.run()
			endPass()
			if err != nil {
				fail("traced", fmt.Errorf("layer pass: %w", err))
			}
			for k, v := range layer {
				out[k] = v
			}
		}
		out["mesh.build_s"] = median(meshS)
		out["go.gc_cycles_per_step"] = float64(plain.gcCycles) / float64(timed)
	}
	failed := len(failures)
	if trace {
		out["failed_runs"] = float64(failed) / float64(attempted)
		if e.outDir != "" {
			tf := traceFile{Workload: w.name, Seed: seed, GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Spans: t.spans}
			if err := writeTrace(filepath.Join(e.outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed)), tf); err != nil {
				return nil, err
			}
		}
	}

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		if v, ok := out[d.name]; ok {
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	e.summarize(w, seed, timed, plain, failures, res, defs)
	return res, nil
}

// matchRecord compares a run's fingerprint with the one recorded by an
// earlier invocation of the same binary, workload, seed and window, and
// records it when there is none.
func (e env) matchRecord(workload string, seed uint64, timed int, f fingerprint) error {
	if e.outDir == "" || e.binaryID == "" {
		return nil
	}
	path := filepath.Join(e.outDir, "fingerprints", fmt.Sprintf("%s-seed%d-steps%d-%s.json", workload, seed, timed, e.binaryID))
	raw, err := json.Marshal(f)
	if err != nil {
		return err
	}
	old, err := os.ReadFile(path)
	switch {
	case err == nil:
		if !bytes.Equal(old, raw) {
			return fmt.Errorf("outcome differs from an earlier run of the same seed (%s)", path)
		}
		return nil
	case errors.Is(err, fs.ErrNotExist):
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, raw, 0o644)
	default:
		return err
	}
}

// summarize writes the human-readable report.
func (e env) summarize(w workload, seed uint64, timed int, plain *timedRun, failures map[string]error, res *result, defs []metricDef) {
	if e.log == nil {
		return
	}
	fmt.Fprintf(e.log, "workload %s seed %d: ranks=%d workers=%d GOMAXPROCS=%d NumCPU=%d, %d warm-up + %d timed steps\n",
		w.name, seed, w.ranks, w.workers, runtime.GOMAXPROCS(0), runtime.NumCPU(), w.warmup, timed)
	if plain.stats != nil {
		ps := plain.globalParticles()
		fmt.Fprintf(e.log, "window particles: min %d max %d\n", slices.Min(ps), slices.Max(ps))
	}
	for _, label := range metrics.SortedNames(failures) {
		fmt.Fprintf(e.log, "FAILED %s: %v\n", label, failures[label])
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.name]; ok {
			fmt.Fprintf(e.log, "  %-40s %14.6g %s\n", d.name, m.Value, m.Unit)
		} else {
			fmt.Fprintf(e.log, "  %-40s %14s (withheld)\n", d.name, "-")
		}
	}
}
