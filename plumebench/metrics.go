package main

import (
	"runtime"
	"slices"

	"github.com/plasma-hpc/dsmcpic/internal/balance"
	"github.com/plasma-hpc/dsmcpic/internal/core"
	"github.com/plasma-hpc/dsmcpic/internal/metrics"
)

// metricDef is a printed metric: the name BENCHMARK.json lists and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are printed by untraced invocations (--trace 0).
var endToEndMetrics = []metricDef{
	{"step_s_p50", "s"},
	{"particle_steps_per_s", "1/s"},
	{"setup_s", "s"},
	{"modeled_step_s", "s"},
	{"heap_peak_bytes", "bytes"},
	{"alloc_bytes_per_step", "bytes"},
}

// phases are the solver's Table IV phases as its metrics collector names
// them. Deposit is nested inside Poisson_Solve; every phase is reported as
// self time, so Poisson_Solve excludes the deposit.
var phases = []string{
	core.CompInject, core.CompDSMCMove, core.CompDSMCExchange, core.CompReindex,
	core.CompColliReact, core.CompPICMove, core.CompPICExchange, core.CompPoisson,
	core.CompDeposit, core.CompRebalance,
}

// computePhases scale with the rank's own particles; rank skew compares
// them across ranks (the communication phases absorb the waiting).
var computePhases = []string{core.CompInject, core.CompDSMCMove, core.CompColliReact, core.CompPICMove, core.CompDeposit}

// trafficPhases are the simmpi traffic labels reported per step.
var trafficPhases = []string{core.CompDSMCExchange, core.CompPICExchange, core.CompPoisson, balance.MigratePhase}

// perLayerMetrics are printed by traced invocations (--trace 1).
func perLayerMetrics() []metricDef {
	defs := []metricDef{{"step_s_p90", "s"}}
	for _, p := range phases {
		defs = append(defs, metricDef{"core.phase." + p + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"core.phase_coverage", "ratio"},
		metricDef{"core.rank_skew", "ratio"},
		metricDef{"core.window_particles_min", "count"},
		metricDef{"core.window_particles_max", "count"},
		metricDef{"dsmc.move_ns_per_particle", "ns"},
		metricDef{"dsmc.crossings_per_particle", "ratio"},
		metricDef{"dsmc.cell_excursion_max", "ratio"},
		metricDef{"dsmc.collide_ns_per_candidate", "ns"},
		metricDef{"dsmc.accept_ratio", "ratio"},
		metricDef{"particle.inject_ns_per_particle", "ns"},
		metricDef{"pic.deposit_ns_per_particle", "ns"},
		metricDef{"pic.boris_ns_per_particle", "ns"},
		metricDef{"pic.solve_s", "s"},
		metricDef{"pic.efield_s", "s"},
		metricDef{"pic.cg_iters_per_solve", "count"},
		metricDef{"pic.cg_residual", "ratio"},
		metricDef{"pic.resident_bytes_max", "bytes"},
		metricDef{"pic.assemble_s", "s"},
		metricDef{"sparse.mulvec_ns_per_nnz", "ns"},
		metricDef{"sparse.cg_iter_s", "s"},
		metricDef{"simmpi.allreduce_s", "s"},
		metricDef{"simmpi.allreduce_allocs", "count"},
	)
	for _, ph := range trafficPhases {
		defs = append(defs, metricDef{"simmpi.msgs_per_step." + ph, "count"})
	}
	for _, ph := range trafficPhases {
		defs = append(defs, metricDef{"simmpi.bytes_per_step." + ph, "bytes"})
	}
	return append(defs,
		metricDef{"exchange.migrated_per_step", "count"},
		metricDef{"exchange.bytes_per_particle", "bytes"},
		metricDef{"balance.rebalances", "count"},
		metricDef{"balance.lii_p50", "ratio"},
		metricDef{"balance.migrated_particles", "count"},
		metricDef{"mesh.build_s", "s"},
		metricDef{"partition.kway_s", "s"},
		metricDef{"partition.edge_cut", "count"},
		metricDef{"parallel.kernel_speedup", "ratio"},
		metricDef{"go.gc_cycles_per_step", "count"},
		metricDef{"go.gomaxprocs", "count"},
		metricDef{"trace.overhead", "ratio"},
		metricDef{"failed_runs", "ratio"},
	)
}

// endToEnd computes the untraced metrics of a run, and the step_s_p90
// that traced invocations print among the per-layer metrics. A run that
// errored before finishing reports what it recorded (zeros elsewhere);
// its failure is counted separately.
//
// Host contention on a shared machine comes in bursts that slow every
// step for seconds at a time, so rates are medians over steps, not
// totals over the window: a burst moves a mean with its full weight.
func endToEnd(tr *timedRun, setupS float64) map[string]float64 {
	out := map[string]float64{"setup_s": setupS}
	steps := tr.stepSeconds()
	out["step_s_p50"] = median(steps)
	if p90, ok := percentile(steps, 0.9, 10); ok {
		out["step_s_p90"] = p90
	}
	if tr.stats == nil {
		return out
	}
	rates := make([]float64, len(steps))
	for k, n := range tr.globalParticles() {
		rates[k] = ratio(float64(n), steps[k])
	}
	out["particle_steps_per_s"] = median(rates)
	out["modeled_step_s"] = tr.modeledStepS()
	out["heap_peak_bytes"] = float64(tr.heapPeak)
	out["alloc_bytes_per_step"] = float64(tr.allocBytes) / float64(tr.timed)
	return out
}

// phaseSpan ties a collector phase sample (as a span) to its rank and
// timed step.
type phaseSpan struct {
	span, rank, step int
	phase            string
}

// addPhaseSpans turns the traced run's collector samples into spans: one
// span per timed step (parent: the run), each rank's phase samples
// beneath it, and a sample nested in a longer one of the same rank and
// step (Deposit inside Poisson_Solve) beneath the innermost such sample.
func addPhaseSpans(t *tracer, runSpan int, tr *timedRun, c *metrics.Collector) []phaseSpan {
	var out []phaseSpan
	for k := 0; k < tr.timed; k++ {
		stepSpan := t.add("step", runSpan, -1, tr.stepStart[k], tr.stepEnd[k], 0)
		for r := 0; r < c.Size(); r++ {
			samples := c.Rank(r).Steps()[tr.warmup+k].Phases
			first := len(t.spans)
			for _, p := range samples {
				id := t.add("core.phase."+p.Name, stepSpan, r, p.Start, p.Start+p.Dur, 0)
				out = append(out, phaseSpan{span: id, rank: r, step: k, phase: p.Name})
			}
			for j, p := range samples {
				inner := -1
				for i, q := range samples {
					if q.Dur > p.Dur && q.Start <= p.Start && p.Start+p.Dur <= q.Start+q.Dur &&
						(inner < 0 || q.Dur < samples[inner].Dur) {
						inner = i
					}
				}
				if inner >= 0 {
					t.spans[first+j].Parent = t.spans[first+inner].ID
				}
			}
		}
	}
	return out
}

// traced computes the per-layer metrics that come from the traced run:
// phase self times (max over ranks per step, median over steps), rank
// skew, traffic, migration and balance counts, and convergence.
func traced(t *tracer, runSpan int, tr *timedRun, c *metrics.Collector, substeps int) map[string]float64 {
	out := make(map[string]float64)
	ps := addPhaseSpans(t, runSpan, tr, c)
	self := selfTimes(t.spans)
	// perStep[k][r][phase] = self seconds
	perStep := make([][]map[string]float64, tr.timed)
	for k := range perStep {
		perStep[k] = make([]map[string]float64, c.Size())
		for r := range perStep[k] {
			perStep[k][r] = make(map[string]float64)
		}
	}
	for _, p := range ps {
		perStep[p.step][p.rank][p.phase] += float64(self[p.span-1]) / 1e9
	}
	var coverage float64
	for _, ph := range phases {
		samples := make([]float64, tr.timed)
		for k := range samples {
			for r := range perStep[k] {
				samples[k] = max(samples[k], perStep[k][r][ph])
			}
		}
		v := median(samples)
		out["core.phase."+ph+"_s"] = v
		coverage += v
	}
	out["core.phase_coverage"] = ratio(coverage, median(tr.stepSeconds()))
	skews := make([]float64, tr.timed)
	for k := range skews {
		lo, hi := -1.0, 0.0
		for r := range perStep[k] {
			var busy float64
			for _, ph := range computePhases {
				busy += perStep[k][r][ph]
			}
			if lo < 0 || busy < lo {
				lo = busy
			}
			hi = max(hi, busy)
		}
		skews[k] = ratio(hi-lo, hi)
	}
	out["core.rank_skew"] = median(skews)

	particles := tr.globalParticles()
	lo, hi := particles[0], particles[0]
	for _, n := range particles {
		lo, hi = min(lo, n), max(hi, n)
	}
	out["dsmc.cell_excursion_max"] = slices.Max(tr.excursion)
	out["core.window_particles_min"] = float64(lo)
	out["core.window_particles_max"] = float64(hi)

	steps := float64(tr.timed)
	iters := tr.end[0].poissonIters - tr.start[0].poissonIters // identical on every rank
	out["pic.cg_iters_per_solve"] = float64(iters) / (steps * float64(substeps))
	out["pic.cg_residual"] = median(tr.lastResidual[tr.warmup:])
	var resident int64
	for r := 0; r < c.Size(); r++ {
		var b int64
		for _, g := range []string{core.GaugePoissonMatrixBytes, core.GaugePoissonVectorBytes, core.GaugePoissonIndexMapBytes} {
			v, _ := c.Rank(r).GaugeLast(g)
			b += v
		}
		resident = max(resident, b)
	}
	out["pic.resident_bytes_max"] = float64(resident)

	traffic := tr.windowTraffic()
	for _, ph := range trafficPhases {
		out["simmpi.msgs_per_step."+ph] = float64(traffic[ph][0]) / steps
		out["simmpi.bytes_per_step."+ph] = float64(traffic[ph][1]) / steps
	}
	migrated := tr.windowSum(func(s rankSnap) int64 { return s.migratedDSMC + s.migratedPIC })
	out["exchange.migrated_per_step"] = float64(migrated) / steps
	exBytes := traffic[core.CompDSMCExchange][1] + traffic[core.CompPICExchange][1]
	out["exchange.bytes_per_particle"] = ratio(float64(exBytes), float64(migrated))

	// Balance counts cover the whole run: the first rebalance happens in
	// the warm-up, at the balancer's first check.
	out["balance.rebalances"] = float64(tr.stats.Rebalances())
	var rebal int64
	for _, rs := range tr.stats.Ranks {
		rebal += rs.MigratedRebalance
	}
	out["balance.migrated_particles"] = float64(rebal)
	out["balance.lii_p50"] = median(tr.stats.Ranks[0].LIIHistory[tr.warmup:])
	out["go.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	return out
}
