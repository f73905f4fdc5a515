package main

import (
	"fmt"
	rtmetrics "runtime/metrics"

	"github.com/plasma-hpc/dsmcpic/internal/core"
	"github.com/plasma-hpc/dsmcpic/internal/metrics"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
)

// placementEps is the barycentric tolerance of the "particle lies in its
// recorded cell" check: the solver's own allowance for floating-point
// jitter in point location (mesh.Refinement.FindFineCell accepts a child
// up to 1e-6 outside and reports -1 beyond, and DepositCharge then drops
// the particle's charge). dsmc.Move's face-crossing times carry rounding
// error (geom.Tet.ExitFace takes the ray's barycentric slope from the
// point p+vel, a second of flight away) that can hand a particle to the
// neighbour cell just before it would reach the shared face — occasionally
// beyond this tolerance, which fails the run; dsmc.cell_excursion_max
// reports the largest excursion.
const placementEps = 1e-6

// runOpts selects what one timed run records beyond the untraced minimum.
type runOpts struct {
	// collector, when set, is attached as Config.Metrics: the traced run.
	collector *metrics.Collector
	// capture takes core.CaptureCheckpoint after the last step, the state
	// the layer pass replays.
	capture bool
	// probe runs on every rank after the last step, before the placement
	// check. Tests use it to break the output on purpose.
	probe func(step int, s *core.Solver)
}

// rankSnap is one rank's cumulative counters at a window boundary.
type rankSnap struct {
	traffic                   map[string]simmpi.PhaseStats
	poissonIters              int64
	migratedDSMC, migratedPIC int64
}

// timedRun is everything one core.Run left behind for the metrics and
// the checks. Rank-0 fields are written only by rank 0's OnStep; per-rank
// slices only at the rank's own index; all are read after Run returns.
type timedRun struct {
	warmup, timed int

	stepStart, stepEnd []int64   // rank 0's probe exit/entry around each timed step (ns)
	lastResidual       []float64 // rank 0's last-substep Poisson residual, every step
	heapPeak           uint64    // max GC heap goal at a timed step boundary
	allocBytes         uint64    // heap bytes allocated over the window
	gcCycles           uint64    // GC cycles completed over the window

	start, end []rankSnap // per rank, at the window's first and last boundary
	misplaced  []int      // per rank: particles outside an owned cell or their recorded cell
	excursion  []float64  // per rank: largest barycentric distance outside a recorded cell

	stats      *core.RunStats
	checkpoint *core.Checkpoint
	err        error
}

// runtime/metrics read at step boundaries (allocation-free after setup).
const (
	rtHeapGoal   = "/gc/heap/goal:bytes"
	rtAllocBytes = "/gc/heap/allocs:bytes"
	rtGCCycles   = "/gc/cycles/total:gc-cycles"
)

// runTimed runs warmup untimed steps then the timed window through
// core.Run, timing each window step between rank 0's OnStep calls.
func runTimed(cfg core.Config, ranks, warmup, timed int, clock func() int64, o runOpts) *timedRun {
	// Rank 0's probe appends without growing, so it allocates nothing.
	tr := &timedRun{
		warmup:       warmup,
		timed:        timed,
		stepStart:    make([]int64, 0, timed),
		stepEnd:      make([]int64, 0, timed),
		lastResidual: make([]float64, 0, warmup+timed),
		start:        make([]rankSnap, ranks),
		end:          make([]rankSnap, ranks),
		misplaced:    make([]int, ranks),
		excursion:    make([]float64, ranks),
	}
	last := warmup + timed - 1
	cfg.Steps = warmup + timed
	cfg.Metrics = o.collector
	rt := []rtmetrics.Sample{{Name: rtHeapGoal}, {Name: rtAllocBytes}, {Name: rtGCCycles}}
	var alloc0, gc0 uint64
	cfg.OnStep = func(step int, s *core.Solver) {
		r := s.Comm.Rank()
		if r == 0 {
			if step >= warmup {
				tr.stepEnd = append(tr.stepEnd, clock())
				rtmetrics.Read(rt)
				tr.heapPeak = max(tr.heapPeak, rt[0].Value.Uint64())
			}
			tr.lastResidual = append(tr.lastResidual, s.Stats.PoissonResidual)
		}
		switch step {
		case warmup - 1:
			tr.start[r] = snapshot(s)
			if r == 0 {
				rtmetrics.Read(rt)
				alloc0, gc0 = rt[1].Value.Uint64(), rt[2].Value.Uint64()
			}
		case last:
			tr.end[r] = snapshot(s)
			if r == 0 {
				tr.allocBytes, tr.gcCycles = rt[1].Value.Uint64()-alloc0, rt[2].Value.Uint64()-gc0
			}
			if o.probe != nil {
				o.probe(step, s)
			}
			tr.misplaced[r], tr.excursion[r] = misplaced(s)
			if o.capture {
				if cp := core.CaptureCheckpoint(s, step); r == 0 {
					tr.checkpoint = cp
				}
			}
		}
		if r == 0 && step >= warmup-1 && step < last {
			tr.stepStart = append(tr.stepStart, clock())
		}
	}
	tr.stats, tr.err = core.Run(simmpi.NewWorld(ranks, simmpi.Options{}), cfg)
	return tr
}

func snapshot(s *core.Solver) rankSnap {
	c := s.Comm.Counter()
	snap := rankSnap{
		traffic:      make(map[string]simmpi.PhaseStats),
		poissonIters: s.Stats.PoissonIters,
		migratedDSMC: s.Stats.MigratedDSMC,
		migratedPIC:  s.Stats.MigratedPIC,
	}
	for _, ph := range c.Phases() {
		snap.traffic[ph] = c.Phase(ph)
	}
	return snap
}

// misplaced counts this rank's particles that sit in a cell another rank
// owns, or more than placementEps outside the cell they record, and
// returns the largest barycentric excursion outside a recorded cell.
func misplaced(s *core.Solver) (bad int, excursion float64) {
	me := int32(s.Comm.Rank())
	owner := s.Owner()
	for i := 0; i < s.St.Len(); i++ {
		c := s.St.Cell[i]
		if c < 0 || int(c) >= len(owner) || owner[c] != me {
			bad++
			continue
		}
		w := s.Ref.Coarse.Tet(int(c)).Barycentric(s.St.Pos[i])
		out := -min(w[0], w[1], w[2], w[3])
		if !(out <= placementEps) { // NaN: degenerate cell
			bad++
		}
		if out > excursion {
			excursion = out
		}
	}
	return bad, excursion
}

// stepSeconds returns the wall time of every timed step.
func (tr *timedRun) stepSeconds() []float64 {
	out := make([]float64, 0, len(tr.stepEnd))
	for i := range tr.stepEnd {
		out = append(out, float64(tr.stepEnd[i]-tr.stepStart[i])/1e9)
	}
	return out
}

// globalParticles returns the global particle count after each timed step.
func (tr *timedRun) globalParticles() []int {
	out := make([]int, tr.timed)
	for _, rs := range tr.stats.Ranks {
		for k := range out {
			out[k] += rs.ParticleHistory[tr.warmup+k]
		}
	}
	return out
}

// modeledStepS is the cost-model seconds per timed step: the per-step
// maximum over ranks (bulk synchrony), averaged over the window.
func (tr *timedRun) modeledStepS() float64 {
	var sum float64
	for k := tr.warmup; k < tr.warmup+tr.timed; k++ {
		var slowest float64
		for _, rs := range tr.stats.Ranks {
			slowest = max(slowest, rs.StepTotals[k])
		}
		sum += slowest
	}
	return sum / float64(tr.timed)
}

// windowTraffic sums each phase's (messages, bytes) over ranks across
// the window. Checkpoint capture traffic comes after the window's end
// boundary, so it never appears here.
func (tr *timedRun) windowTraffic() map[string][2]int64 {
	out := make(map[string][2]int64)
	for r := range tr.end {
		for ph, e := range tr.end[r].traffic {
			b := tr.start[r].traffic[ph]
			t := out[ph]
			t[0] += e.Messages - b.Messages
			t[1] += e.Bytes - b.Bytes
			out[ph] = t
		}
	}
	return out
}

// windowSum sums a per-rank counter delta over the window.
func (tr *timedRun) windowSum(f func(rankSnap) int64) int64 {
	var total int64
	for r := range tr.end {
		total += f(tr.end[r]) - f(tr.start[r])
	}
	return total
}

// fingerprint is the deterministic outcome of a run: for a fixed binary,
// workload, seed and window it must repeat exactly, traced or not.
type fingerprint struct {
	Particles    []int               `json:"particles"`
	CGIters      int64               `json:"cg_iters"`
	Traffic      map[string][2]int64 `json:"traffic"`
	ModeledStepS float64             `json:"modeled_step_s"`
}

func (tr *timedRun) fingerprint() fingerprint {
	return fingerprint{
		Particles:    tr.globalParticles(),
		CGIters:      tr.windowSum(func(s rankSnap) int64 { return s.poissonIters }),
		Traffic:      tr.windowTraffic(),
		ModeledStepS: tr.modeledStepS(),
	}
}

// check applies the output checks to a finished run and returns the
// first failure, or nil. tol is the Poisson tolerance the solver used.
// With a collector attached every solve is checked, otherwise the last.
func (tr *timedRun) check(tol float64, substeps int, collector *metrics.Collector) error {
	if tr.err != nil {
		return fmt.Errorf("core.Run: %w", tr.err)
	}
	if len(tr.stepEnd) != tr.timed || len(tr.lastResidual) != tr.warmup+tr.timed {
		return fmt.Errorf("recorded %d of %d timed steps", len(tr.stepEnd), tr.timed)
	}
	if res := tr.lastResidual[len(tr.lastResidual)-1]; !(res <= tol) {
		return fmt.Errorf("last Poisson residual %g above tolerance %g", res, tol)
	}
	if collector != nil {
		// Poisson_Residual_femto sums the step's substep residuals, each
		// truncated to 1e-15 units; subtracting the last one (recorded
		// per step on rank 0) leaves the earlier substeps.
		tolFemto := int64(tol * 1e15)
		for k, sr := range collector.Rank(0).Steps() {
			lastF := int64(tr.lastResidual[k] * 1e15)
			earlier := sr.Counters[core.MetricPoissonResidualFemto] - lastF
			if lastF > tolFemto || earlier > int64(substeps-1)*tolFemto {
				return fmt.Errorf("step %d: Poisson residual above tolerance %g", k, tol)
			}
		}
	}
	for r, n := range tr.misplaced {
		if n > 0 {
			return fmt.Errorf("rank %d holds %d particles outside its owned cells or their recorded cell (largest excursion %.3g, tolerance %g)",
				r, n, tr.excursion[r], placementEps)
		}
	}
	return nil
}
