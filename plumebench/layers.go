package main

import (
	"fmt"
	rtmetrics "runtime/metrics"

	"github.com/plasma-hpc/dsmcpic/internal/core"
	"github.com/plasma-hpc/dsmcpic/internal/dsmc"
	"github.com/plasma-hpc/dsmcpic/internal/geom"
	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/parallel"
	"github.com/plasma-hpc/dsmcpic/internal/particle"
	"github.com/plasma-hpc/dsmcpic/internal/partition"
	"github.com/plasma-hpc/dsmcpic/internal/pic"
	"github.com/plasma-hpc/dsmcpic/internal/rng"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
	"github.com/plasma-hpc/dsmcpic/internal/sparse"
)

// layerReps is how often each kernel is replayed; the median is kept.
const layerReps = 3

// layerPass replays one captured world state through each layer's public
// entry point, timing every call from outside and counting allocations.
// Every kernel runs on a fresh copy of the captured state, so repetitions
// and worker counts see identical inputs.
type layerPass struct {
	ref     *mesh.Refinement
	cfg     core.Config // as resolved by core.Prepare
	cp      *core.Checkpoint
	ranks   int
	workers int
	tr      *tracer
	parent  int
	out     map[string]float64
}

// allocCount returns the process-wide number of heap allocations so far.
func allocCount() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// timeCall runs f once inside a span and returns its wall seconds.
func (lp *layerPass) timeCall(name string, f func()) float64 {
	a0 := allocCount()
	start := lp.tr.now()
	f()
	end := lp.tr.now()
	lp.tr.add(name, lp.parent, -1, start, end, int64(allocCount()-a0))
	return float64(end-start) / 1e9
}

// timeMedian replays f layerReps times (prep runs untimed before each)
// and returns the median wall seconds.
func (lp *layerPass) timeMedian(name string, prep, f func()) float64 {
	ts := make([]float64, layerReps)
	for i := range ts {
		prep()
		ts[i] = lp.timeCall(name, f)
	}
	return median(ts)
}

func cloneStore(st *particle.Store) *particle.Store {
	return &particle.Store{
		Pos:  append([]geom.Vec3(nil), st.Pos...),
		Vel:  append([]geom.Vec3(nil), st.Vel...),
		Sp:   append([]particle.Species(nil), st.Sp...),
		Cell: append([]int32(nil), st.Cell...),
		ID:   append([]int64(nil), st.ID...),
	}
}

func (lp *layerPass) weightOf(sp particle.Species) float64 {
	if sp.IsCharged() {
		return lp.cfg.WeightIon
	}
	return lp.cfg.WeightH
}

// kernelRun is one replay of the four particle kernels at one worker
// count: their median seconds and the work they did.
type kernelRun struct {
	move, collide, deposit, boris float64
	moved, crossings              int // dsmc.Move over the neutrals
	candidates, collisions        int // GroupByCell + Collider.Collide
	charged                       int // particles DepositCharge and BorisPush handle
}

func (k kernelRun) total() float64 { return k.move + k.collide + k.deposit + k.boris }

// kernels replays Move, GroupByCell+Collide, DepositCharge and BorisPush
// with the given worker count.
func (lp *layerPass) kernels(workers int, poisson *pic.Poisson) kernelRun {
	var kr kernelRun
	pool := parallel.New(workers)
	suffix := fmt.Sprintf("/w%d", workers)
	src := lp.cp.Particles
	coarse := lp.ref.Coarse
	var st *particle.Store
	fresh := func() { st = cloneStore(src) }

	var sc dsmc.MoveScratch
	kr.move = lp.timeMedian("dsmc.Move"+suffix, fresh, func() {
		ms := dsmc.Move(st, coarse, lp.cfg.DtDSMC, lp.cfg.Wall, dsmc.Neutrals, rng.New(lp.cfg.Seed, 1), pool, &sc)
		kr.moved, kr.crossings = ms.Moved, ms.Crossings
	})

	collider := dsmc.NewCollider(coarse.NumCells(), lp.cfg.WeightH, lp.cfg.Reactions)
	kr.collide = lp.timeMedian("dsmc.Collide"+suffix, fresh, func() {
		groups := dsmc.GroupByCell(st, coarse.NumCells(), nil)
		cs := collider.Collide(st, groups, coarse.Volumes, lp.cfg.DtDSMC, rng.New(lp.cfg.Seed, 2), pool)
		kr.candidates, kr.collisions = cs.Candidates, cs.Collisions
	})

	// The field kernels gather through each charged particle's fine cell.
	fineCell := make([]int32, src.Len())
	for i := range fineCell {
		fineCell[i] = -1
		if src.Sp[i].IsCharged() {
			fineCell[i] = int32(lp.ref.FindFineCell(int(src.Cell[i]), src.Pos[i]))
			kr.charged++
		}
	}
	nodeCharge := make([]float64, lp.ref.Fine.NumNodes())
	var dsc pic.DepositScratch
	kr.deposit = lp.timeMedian("pic.DepositCharge"+suffix, func() {
		fresh()
		clear(nodeCharge)
	}, func() {
		pic.DepositCharge(st, lp.ref, lp.weightOf, nodeCharge, fineCell, pool, &dsc)
	})
	eField := poisson.ElectricField(lp.cp.Phi, nil)
	kr.boris = lp.timeMedian("pic.BorisPush"+suffix, fresh, func() {
		pic.BorisPush(st, eField, fineCell, lp.cfg.BField, lp.cfg.DtPIC, pool)
	})
	return kr
}

// run executes the whole layer pass and returns its metrics.
func (lp *layerPass) run() (map[string]float64, error) {
	lp.out = make(map[string]float64)
	var poisson *pic.Poisson
	var perr error
	lp.out["pic.assemble_s"] = lp.timeMedian("pic.NewPoisson", func() {}, func() {
		poisson, perr = pic.NewPoisson(lp.ref.Fine, lp.cfg.BC)
	})
	if perr != nil {
		return nil, perr
	}

	inj := particle.NewInjector(lp.ref.Coarse, func(int32) bool { return true })
	var dst *particle.Store
	injS := lp.timeMedian("particle.Inject", func() { dst = particle.NewStore(lp.cfg.InjectHPerStep) }, func() {
		inj.Inject(dst, particle.SampleSpec{
			Sp: particle.H, Count: lp.cfg.InjectHPerStep, Temperature: lp.cfg.Temperature, Drift: lp.cfg.Drift,
		}, rng.New(lp.cfg.Seed, 3))
	})
	lp.out["particle.inject_ns_per_particle"] = ratio(injS*1e9, float64(lp.cfg.InjectHPerStep))

	own := lp.kernels(lp.workers, poisson)
	lp.out["dsmc.move_ns_per_particle"] = ratio(own.move*1e9, float64(own.moved))
	lp.out["dsmc.crossings_per_particle"] = ratio(float64(own.crossings), float64(own.moved))
	lp.out["dsmc.collide_ns_per_candidate"] = ratio(own.collide*1e9, float64(own.candidates))
	lp.out["dsmc.accept_ratio"] = ratio(float64(own.collisions), float64(own.candidates))
	lp.out["pic.deposit_ns_per_particle"] = ratio(own.deposit*1e9, float64(own.charged))
	lp.out["pic.boris_ns_per_particle"] = ratio(own.boris*1e9, float64(own.charged))
	one, two := own, own
	if lp.workers != 1 {
		one = lp.kernels(1, poisson)
	}
	if lp.workers != 2 {
		two = lp.kernels(2, poisson)
	}
	lp.out["parallel.kernel_speedup"] = ratio(one.total(), two.total())

	if err := lp.solve(poisson); err != nil {
		return nil, err
	}

	cells := make([]int32, lp.ref.Fine.NumCells())
	for i := range cells {
		cells[i] = int32(i)
	}
	eField := make([]geom.Vec3, len(cells))
	lp.out["pic.efield_s"] = lp.timeMedian("pic.ElectricFieldForCells", func() {}, func() {
		poisson.ElectricFieldForCells(lp.cp.Phi, cells, eField)
	})

	k := poisson.K
	y := make([]float64, k.N)
	reps := 1 + 50_000_000/k.NNZ()
	mulS := lp.timeMedian("sparse.CSR.MulVec", func() {}, func() {
		for i := 0; i < reps; i++ {
			k.MulVec(y, lp.cp.Phi)
		}
	})
	lp.out["sparse.mulvec_ns_per_nnz"] = mulS * 1e9 / float64(reps*k.NNZ())

	lp.allreduce()

	xadj, adjncy := lp.ref.Coarse.DualGraph()
	g := &partition.Graph{Xadj: xadj, Adjncy: adjncy}
	var parts []int32
	var kerr error
	lp.out["partition.kway_s"] = lp.timeMedian("partition.PartGraphKway", func() {}, func() {
		parts, kerr = partition.PartGraphKway(g, lp.ranks, partition.Options{Seed: lp.cfg.Seed})
	})
	if kerr != nil {
		return nil, kerr
	}
	lp.out["partition.edge_cut"] = float64(partition.EdgeCut(g, parts))
	return lp.out, nil
}

// solve runs one distributed Poisson solve of the captured charge on the
// workload's rank count. The captured potential already solves that
// charge, so the solve starts cold, from zero, and does a full solve's
// iterations.
func (lp *layerPass) solve(poisson *pic.Poisson) error {
	// Each rank deposits the captured particles in the cells it owns, as
	// the solver's ranks do; the solve reduces the contributions.
	src := lp.cp.Particles
	charges := make([][]float64, lp.ranks)
	for r := range charges {
		mine := particle.NewStore(0)
		for i := 0; i < src.Len(); i++ {
			if lp.cp.Owner[src.Cell[i]] == int32(r) {
				mine.Append(src.Get(i))
			}
		}
		charges[r] = make([]float64, lp.ref.Fine.NumNodes())
		pic.DepositCharge(mine, lp.ref, lp.weightOf, charges[r], nil, parallel.New(1), nil)
	}
	nodeOwner := pic.NodeOwners(lp.ref, lp.cp.Owner)
	fineOwner := pic.FineCellOwners(lp.ref, lp.cp.Owner)
	ts := make([]float64, layerReps)
	var res sparse.SolveResult
	for rep := range ts {
		var start, end int64
		var a0, a1 uint64
		err := simmpi.NewWorld(lp.ranks, simmpi.Options{}).Run(func(comm *simmpi.Comm) {
			var d *pic.DistSolver
			var err error
			if lp.cfg.PoissonExchange == pic.ExchangeOwnerLocal {
				d, err = pic.NewDistSolverOwnerLocal(poisson, nodeOwner, fineOwner, lp.ranks, comm.Rank())
			} else {
				d, err = pic.NewDistSolver(poisson, nodeOwner, lp.ranks, comm.Rank(), lp.cfg.PoissonExchange)
			}
			if err != nil {
				panic(err)
			}
			phi := make([]float64, lp.ref.Fine.NumNodes())
			comm.Barrier()
			if comm.Rank() == 0 {
				a0, start = allocCount(), lp.tr.now()
			}
			r, err := d.Solve(comm, charges[comm.Rank()], phi, sparse.SolveOptions{Tol: lp.cfg.PoissonTol, MaxIter: lp.cfg.PoissonMaxIter})
			if err != nil {
				panic(err)
			}
			comm.Barrier()
			if comm.Rank() == 0 {
				end, a1, res = lp.tr.now(), allocCount(), r
			}
		})
		if err != nil {
			return fmt.Errorf("layer pass solve: %w", err)
		}
		lp.tr.add("pic.DistSolver.Solve", lp.parent, -1, start, end, int64(a1-a0))
		ts[rep] = float64(end-start) / 1e9
	}
	if !(res.Residual <= lp.cfg.PoissonTol) {
		return fmt.Errorf("layer pass solve: residual %g above tolerance %g", res.Residual, lp.cfg.PoissonTol)
	}
	lp.out["pic.solve_s"] = median(ts)
	lp.out["sparse.cg_iter_s"] = ratio(median(ts), float64(res.Iterations))
	return nil
}

// allreduceCalls is the number of AllreduceFloat64 calls timed per rep:
// the size of the CG's fused per-iteration reduction, many times over.
const allreduceCalls = 2000

// allreduce times Comm.AllreduceFloat64 on the workload's rank count and
// counts heap allocations per call, summed over ranks.
func (lp *layerPass) allreduce() {
	ts := make([]float64, layerReps)
	allocs := make([]float64, layerReps)
	for rep := range ts {
		var start, end int64
		var a0, a1 uint64
		err := simmpi.NewWorld(lp.ranks, simmpi.Options{}).Run(func(comm *simmpi.Comm) {
			vals := []float64{1, 2}
			comm.Barrier()
			if comm.Rank() == 0 {
				a0, start = allocCount(), lp.tr.now()
			}
			for i := 0; i < allreduceCalls; i++ {
				comm.AllreduceFloat64(vals, simmpi.OpSum)
			}
			comm.Barrier()
			if comm.Rank() == 0 {
				end, a1 = lp.tr.now(), allocCount()
			}
		})
		if err != nil {
			panic(err) // no faults are injected: a failure here is a bug
		}
		lp.tr.add("simmpi.Comm.AllreduceFloat64", lp.parent, -1, start, end, int64(a1-a0))
		ts[rep] = float64(end-start) / 1e9 / allreduceCalls
		allocs[rep] = float64(a1-a0) / allreduceCalls
	}
	lp.out["simmpi.allreduce_s"] = median(ts)
	lp.out["simmpi.allreduce_allocs"] = median(allocs)
}
