package pic

import (
	"fmt"
	"math"
	"testing"

	"github.com/plasma-hpc/dsmcpic/internal/commcost"
	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/rng"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
	"github.com/plasma-hpc/dsmcpic/internal/sparse"
)

// depositSplit splits a global nodal charge vector into per-rank local
// contributions with the support DepositCharge actually produces: a rank
// contributes only at nodes of its owned fine cells, and every node's
// shares sum to its global charge (split evenly over the touching ranks).
// The owner-local boundary reduction relies on this support; the
// replicated allreduce sums any split, so one split serves both modes.
func depositSplit(ref *mesh.Refinement, charge []float64, fineOwners []int32, nRanks int) [][]float64 {
	touches := make([][]bool, nRanks)
	for r := range touches {
		touches[r] = make([]bool, len(charge))
	}
	nTouch := make([]float64, len(charge))
	for fc := range ref.Fine.Cells {
		r := fineOwners[fc]
		for _, n := range ref.Fine.Cells[fc] {
			if !touches[r][n] {
				touches[r][n] = true
				nTouch[n]++
			}
		}
	}
	out := make([][]float64, nRanks)
	for r := 0; r < nRanks; r++ {
		out[r] = make([]float64, len(charge))
		for n := range charge {
			if touches[r][n] {
				out[r][n] = charge[n] / nTouch[n]
			}
		}
	}
	return out
}

// newTestSolver constructs the solver for either mode (owner-local needs
// the fine-cell owner table the replicated constructor does not take).
func newTestSolver(p *Poisson, owners, fineOwners []int32, nRanks, rank int, mode ExchangeMode) (*DistSolver, error) {
	if mode == ExchangeOwnerLocal {
		return NewDistSolverOwnerLocal(p, owners, fineOwners, nRanks, rank)
	}
	return NewDistSolver(p, owners, nRanks, rank, mode)
}

// blockPartition assigns coarse cells to nRanks contiguous blocks.
func blockPartition(ref *mesh.Refinement, nRanks int) []int32 {
	coarseOwner := make([]int32, ref.Coarse.NumCells())
	for c := range coarseOwner {
		coarseOwner[c] = int32(c * nRanks / len(coarseOwner))
	}
	return coarseOwner
}

// TestOwnerLocalPropertyAcrossRanks checks the ownership/index-list
// invariants of the owner-local solver on the plume partition at 1, 2, 4
// and 8 ranks: every global node is owned exactly once; the local⇄global
// map round-trips over owned and ghost ids; the charge pairing agrees
// across every rank pair (A ships to B exactly what B expects from A, in
// the same order); and the pairing is complete — every (node, touching
// non-owner rank) combination appears in exactly the right lists.
func TestOwnerLocalPropertyAcrossRanks(t *testing.T) {
	ref := plumeRefinement(t)
	p, err := NewPoisson(ref.Fine, DefaultBC())
	if err != nil {
		t.Fatal(err)
	}
	nNodes := ref.Fine.NumNodes()
	for _, nRanks := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("ranks=%d", nRanks), func(t *testing.T) {
			coarseOwner := blockPartition(ref, nRanks)
			owners := NodeOwners(ref, coarseOwner)
			fineOwners := FineCellOwners(ref, coarseOwner)
			solvers := make([]*DistSolver, nRanks)
			for rk := range solvers {
				if solvers[rk], err = NewDistSolverOwnerLocal(p, owners, fineOwners, nRanks, rk); err != nil {
					t.Fatal(err)
				}
			}

			// Exactly-once ownership.
			seen := make([]int, nNodes)
			for rk := range solvers {
				for _, n := range solvers[rk].OwnedNodes() {
					seen[n]++
				}
			}
			for n, c := range seen {
				if c != 1 {
					t.Fatalf("node %d owned %d times", n, c)
				}
			}

			// local⇄global round-trip, owned prefix matching OwnedNodes.
			for rk := range solvers {
				l := solvers[rk].local
				mine := solvers[rk].OwnedNodes()
				if l.NumOwned() != len(mine) {
					t.Fatalf("rank %d: local view has %d owned rows for %d owned nodes", rk, l.NumOwned(), len(mine))
				}
				for li := 0; li < l.NumOwned()+l.NumGhost(); li++ {
					g := l.LocalToGlobal(int32(li))
					if back := l.LocalOf(g); back != int32(li) {
						t.Fatalf("rank %d: local %d -> global %d -> local %d", rk, li, g, back)
					}
					if li < l.NumOwned() && g != mine[li] {
						t.Fatalf("rank %d: owned prefix slot %d holds %d, want %d", rk, li, g, mine[li])
					}
				}
			}

			// Per-rank touched sets from fine-cell ownership.
			touched := make([][]bool, nRanks)
			for r := range touched {
				touched[r] = make([]bool, nNodes)
			}
			for fc := range ref.Fine.Cells {
				for _, n := range ref.Fine.Cells[fc] {
					touched[fineOwners[fc]][n] = true
				}
			}

			// Pairwise agreement and membership.
			inSend := make([]map[int32]bool, nRanks) // per sender: nodes it ships anywhere
			for a := 0; a < nRanks; a++ {
				inSend[a] = map[int32]bool{}
				for bk := 0; bk < nRanks; bk++ {
					if a == bk {
						continue
					}
					send := solvers[a].chgSend[bk]
					recv := solvers[bk].chgRecv[a] // local ids of bk's owned nodes
					if len(send) != len(recv) {
						t.Fatalf("rank %d ships %d charge nodes to %d, which expects %d", a, len(send), bk, len(recv))
					}
					for i := range send {
						if g := solvers[bk].mine[recv[i]]; send[i] != g {
							t.Fatalf("charge pair (%d,%d) disagrees at slot %d: %d vs %d", a, bk, i, send[i], g)
						}
						n := send[i]
						if owners[n] != int32(bk) {
							t.Fatalf("rank %d ships node %d to %d, but it is owned by %d", a, n, bk, owners[n])
						}
						if !touched[a][n] {
							t.Fatalf("rank %d ships node %d it never deposits into", a, n)
						}
						inSend[a][n] = true
					}
				}
			}
			// Completeness: every touching non-owner contributes.
			for a := 0; a < nRanks; a++ {
				for n := int32(0); n < int32(nNodes); n++ {
					if touched[a][n] && owners[n] != int32(a) && !inSend[a][n] {
						t.Fatalf("rank %d touches node %d (owner %d) but never ships its contribution", a, n, owners[n])
					}
				}
			}
		})
	}
}

// TestOwnerLocalEquivalenceAndTraffic pins the two modes against each
// other on the plume case: at 1, 2 and 4 ranks owner-local and replicated
// converge to the same potential within 1e-8 in the same number of
// iterations, replicated never uses the owner-mode sub-phases, and
// owner's once-per-solve charge + assembly bytes equal the analytic
// boundary model (and at 4 ranks sit at least 4x below the replicated
// full-vector model).
func TestOwnerLocalEquivalenceAndTraffic(t *testing.T) {
	ref := plumeRefinement(t)
	p, err := NewPoisson(ref.Fine, DefaultBC())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7, 0)
	nNodes := ref.Fine.NumNodes()
	charge := make([]float64, nNodes)
	for n := range charge {
		if !p.IsDirichlet[n] {
			charge[n] = 1e-13 * r.Float64()
		}
	}
	for _, nRanks := range []int{1, 2, 4} {
		coarseOwner := blockPartition(ref, nRanks)
		owners := NodeOwners(ref, coarseOwner)
		fineOwners := FineCellOwners(ref, coarseOwner)
		split := depositSplit(ref, charge, fineOwners, nRanks)

		type run struct {
			phi      []float64
			iters    int
			boundary int // Σ charge-pairing list lengths over ranks
			once     simmpi.PhaseStats
		}
		solve := func(mode ExchangeMode) run {
			t.Helper()
			world := simmpi.NewWorld(nRanks, simmpi.Options{})
			var out run
			lens := make([]int, nRanks)
			err := world.Run(func(comm *simmpi.Comm) {
				ds, err := newTestSolver(p, owners, fineOwners, nRanks, comm.Rank(), mode)
				if err != nil {
					panic(err)
				}
				for _, l := range ds.chgSend {
					lens[comm.Rank()] += len(l)
				}
				comm.SetPhase("Poisson_Solve")
				phi := make([]float64, nNodes)
				res, err := ds.Solve(comm, split[comm.Rank()], phi, sparse.SolveOptions{Tol: 1e-10})
				if err != nil {
					panic(err)
				}
				if !res.Converged {
					panic("CG did not converge")
				}
				// Replicate under a separate label: the on-demand gather is
				// diagnostics traffic, not part of the per-solve budget.
				comm.SetPhase("Gather")
				ds.GatherPhi(comm, phi)
				if comm.Rank() == 0 {
					out.phi, out.iters = phi, res.Iterations
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range lens {
				out.boundary += l
			}
			chg, _ := simmpi.AggregatePhase(world.Counters(), PhasePoissonCharge)
			asm, _ := simmpi.AggregatePhase(world.Counters(), PhasePoissonAssemble)
			out.once = simmpi.PhaseStats{Messages: chg.Messages + asm.Messages, Bytes: chg.Bytes + asm.Bytes}
			return out
		}

		repl := solve(ExchangeReplicated)
		owner := solve(ExchangeOwnerLocal)
		if repl.once.Bytes != 0 {
			t.Fatalf("ranks=%d: replicated produced owner-mode sub-phase traffic (%d bytes)", nRanks, repl.once.Bytes)
		}
		if owner.iters != repl.iters {
			t.Fatalf("ranks=%d: owner took %d iterations, replicated %d", nRanks, owner.iters, repl.iters)
		}
		scale := 0.0
		for _, v := range repl.phi {
			scale = math.Max(scale, math.Abs(v))
		}
		for n := range repl.phi {
			if math.Abs(owner.phi[n]-repl.phi[n]) > 1e-8*scale+1e-18 {
				t.Fatalf("ranks=%d node %d: owner %v vs replicated %v", nRanks, n, owner.phi[n], repl.phi[n])
			}
		}
		model := commcost.PoissonOncePerSolveBytesOwnerLocal(owner.boundary)
		full := commcost.PoissonOncePerSolveBytesFull(nNodes, nRanks)
		t.Logf("ranks=%d: %d iterations; owner charge+assembly %d bytes, replicated model %d bytes",
			nRanks, owner.iters, owner.once.Bytes, full)
		if owner.once.Bytes != model {
			t.Fatalf("ranks=%d: owner once-per-solve bytes %d, boundary model %d", nRanks, owner.once.Bytes, model)
		}
		if nRanks == 1 && owner.once.Messages != 0 {
			t.Errorf("single rank sent %d charge/assembly messages", owner.once.Messages)
		}
		if nRanks == 4 && owner.once.Bytes*4 > full {
			t.Errorf("ranks=4: owner once-per-solve bytes %d not >=4x below replicated %d", owner.once.Bytes, full)
		}
	}
}

// TestHaloReplicatedEquivalencePlume pins the whole-solve traffic of the
// owner-local ghost refresh (the PETSc VecScatter "halo" of §IV-C) against
// the replicated exchange on the plume case: the two converge to the same
// potential (within 1e-8) at 1, 2 and 4 ranks, a single rank puts nothing
// on the wire, and at 4 ranks owner-local's total Poisson traffic — charge
// reduction, per-iteration ghost refresh and assembly together — is at
// least 5x smaller in bytes.
func TestHaloReplicatedEquivalencePlume(t *testing.T) {
	ref := plumeRefinement(t)
	p, err := NewPoisson(ref.Fine, DefaultBC())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7, 0)
	nNodes := ref.Fine.NumNodes()
	charge := make([]float64, nNodes)
	for n := range charge {
		if !p.IsDirichlet[n] {
			charge[n] = 1e-13 * r.Float64()
		}
	}
	for _, nRanks := range []int{1, 2, 4} {
		coarseOwner := blockPartition(ref, nRanks)
		owners := NodeOwners(ref, coarseOwner)
		fineOwners := FineCellOwners(ref, coarseOwner)
		split := depositSplit(ref, charge, fineOwners, nRanks)
		solve := func(mode ExchangeMode) ([]float64, simmpi.PhaseStats) {
			t.Helper()
			world := simmpi.NewWorld(nRanks, simmpi.Options{})
			var phi0 []float64
			err := world.Run(func(comm *simmpi.Comm) {
				ds, err := newTestSolver(p, owners, fineOwners, nRanks, comm.Rank(), mode)
				if err != nil {
					panic(err)
				}
				comm.SetPhase("Poisson_Solve")
				phi := make([]float64, nNodes)
				res, err := ds.Solve(comm, split[comm.Rank()], phi, sparse.SolveOptions{Tol: 1e-10})
				if err != nil {
					panic(err)
				}
				if !res.Converged {
					panic("CG did not converge")
				}
				comm.SetPhase("Gather")
				ds.GatherPhi(comm, phi)
				if comm.Rank() == 0 {
					phi0 = phi
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			var total simmpi.PhaseStats
			for _, ph := range []string{"Poisson_Solve", PhasePoissonCharge, PhasePoissonAssemble} {
				s, _ := simmpi.AggregatePhase(world.Counters(), ph)
				total.Messages += s.Messages
				total.Bytes += s.Bytes
			}
			return phi0, total
		}
		phiOwner, trOwner := solve(ExchangeOwnerLocal)
		phiRepl, trRepl := solve(ExchangeReplicated)
		scale := 0.0
		for _, v := range phiRepl {
			scale = math.Max(scale, math.Abs(v))
		}
		for n := range phiRepl {
			if math.Abs(phiOwner[n]-phiRepl[n]) > 1e-8*scale+1e-18 {
				t.Fatalf("ranks=%d node %d: owner %v vs replicated %v", nRanks, n, phiOwner[n], phiRepl[n])
			}
		}
		t.Logf("ranks=%d: owner %d msgs / %d bytes, replicated %d msgs / %d bytes",
			nRanks, trOwner.Messages, trOwner.Bytes, trRepl.Messages, trRepl.Bytes)
		if nRanks == 1 && trOwner.Messages != 0 {
			// A single rank has no neighbours; the charge reduction, ghost
			// refresh and assembly are all rank-local.
			t.Errorf("single-rank owner-local solve sent %d messages", trOwner.Messages)
		}
		if nRanks == 4 && trOwner.Bytes*5 > trRepl.Bytes {
			t.Errorf("ranks=4: owner-local bytes %d not >=5x below replicated %d", trOwner.Bytes, trRepl.Bytes)
		}
	}
}

// TestOwnerLocalResidentStateScaling pins the memory side of row
// ownership on the 4-rank plume partition: per-rank resident
// matrix+vector bytes are O(nodes/P + ghosts) — at least 2x below the
// single-rank solver, which holds every row — replicated mode adds only
// its full-length assembly buffer, and the ownership rows sum to the full
// mesh.
func TestOwnerLocalResidentStateScaling(t *testing.T) {
	ref := plumeRefinement(t)
	p, err := NewPoisson(ref.Fine, DefaultBC())
	if err != nil {
		t.Fatal(err)
	}
	nNodes := ref.Fine.NumNodes()
	whole, err := NewDistSolverOwnerLocal(p, make([]int32, nNodes), make([]int32, ref.Fine.NumCells()), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ws := whole.ResidentState()
	if ws.OwnedRows != nNodes || ws.GhostCols != 0 {
		t.Fatalf("single rank: %d owned rows, %d ghosts; want %d, 0", ws.OwnedRows, ws.GhostCols, nNodes)
	}
	wholeMV := ws.MatrixBytes + ws.VectorBytes
	const nRanks = 4
	coarseOwner := blockPartition(ref, nRanks)
	owners := NodeOwners(ref, coarseOwner)
	fineOwners := FineCellOwners(ref, coarseOwner)
	sumOwned := 0
	for rk := 0; rk < nRanks; rk++ {
		owner, err := NewDistSolverOwnerLocal(p, owners, fineOwners, nRanks, rk)
		if err != nil {
			t.Fatal(err)
		}
		repl, err := NewDistSolver(p, owners, nRanks, rk, ExchangeReplicated)
		if err != nil {
			t.Fatal(err)
		}
		os, rs := owner.ResidentState(), repl.ResidentState()
		sumOwned += os.OwnedRows
		if os.OwnedRows != rs.OwnedRows || os.GhostCols != rs.GhostCols || os.MatrixBytes != rs.MatrixBytes {
			t.Fatalf("rank %d: modes disagree on the local matrix: %+v vs %+v", rk, os, rs)
		}
		if os.GhostCols <= 0 {
			t.Fatalf("rank %d: no ghost columns on a 4-rank partition", rk)
		}
		if os.MatrixBytes <= 0 || os.VectorBytes <= 0 || os.IndexMapBytes <= 0 {
			t.Fatalf("rank %d: non-positive resident gauge: %+v", rk, os)
		}
		if extra := rs.VectorBytes - os.VectorBytes; extra != 8*int64(nNodes) {
			t.Fatalf("rank %d: replicated holds %d vector bytes beyond owner, want one %d-node buffer", rk, extra, nNodes)
		}
		// Per-iteration codec work: replicated decodes the full vector on
		// every rank, owner packs and unpacks its ghost lists only.
		if oc, rc := owner.IterCodecBytes(), repl.IterCodecBytes(); rc < 8*int64(nNodes) || oc >= rc {
			t.Fatalf("rank %d: per-iteration codec bytes owner %d, replicated %d (%d nodes)", rk, oc, rc, nNodes)
		}
		ownerMV := os.MatrixBytes + os.VectorBytes
		t.Logf("rank %d: owner %d B matrix+vector (%d owned + %d ghosts), single rank %d B",
			rk, ownerMV, os.OwnedRows, os.GhostCols, wholeMV)
		if ownerMV*2 > wholeMV {
			t.Errorf("rank %d: owner resident %d B not >=2x below the single-rank %d B", rk, ownerMV, wholeMV)
		}
	}
	if sumOwned != nNodes {
		t.Fatalf("owned rows sum to %d, want %d", sumOwned, nNodes)
	}
}

// TestOwnerLocalZeroChargeAndGather exercises the degenerate zero-RHS path
// (grounded boundary, no charge): owner-local mode must converge
// immediately, publish zeros to its consumers, and GatherPhi must
// replicate the full (zero) vector even for nodes outside any consumer
// set — starting from a phi deliberately poisoned with stale values.
func TestOwnerLocalZeroChargeAndGather(t *testing.T) {
	ref := plumeRefinement(t)
	p, err := NewPoisson(ref.Fine, DefaultBC())
	if err != nil {
		t.Fatal(err)
	}
	const nRanks = 4
	coarseOwner := blockPartition(ref, nRanks)
	owners := NodeOwners(ref, coarseOwner)
	fineOwners := FineCellOwners(ref, coarseOwner)
	world := simmpi.NewWorld(nRanks, simmpi.Options{})
	err = world.Run(func(comm *simmpi.Comm) {
		ds, err := NewDistSolverOwnerLocal(p, owners, fineOwners, nRanks, comm.Rank())
		if err != nil {
			panic(err)
		}
		phi := make([]float64, ref.Fine.NumNodes())
		for n := range phi {
			phi[n] = 1e6 // stale garbage the solve must overwrite
		}
		res, err := ds.Solve(comm, make([]float64, len(phi)), phi, sparse.SolveOptions{})
		if err != nil {
			panic(err)
		}
		if !res.Converged {
			panic("zero-RHS solve did not converge")
		}
		ds.GatherPhi(comm, phi)
		for n := range phi {
			if phi[n] != 0 {
				panic(fmt.Sprintf("rank %d: phi[%d] = %v after zero-RHS solve + gather", comm.Rank(), n, phi[n]))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// plumeCharge is a random interior charge on the plume mesh.
func plumeCharge(p *Poisson, seed uint64) []float64 {
	r := rng.New(seed, 0)
	charge := make([]float64, p.Fine.NumNodes())
	for n := range charge {
		if !p.IsDirichlet[n] {
			charge[n] = 1e-13 * r.Float64()
		}
	}
	return charge
}

// TestDistSolverIC0HalvesIterations pins the block-Jacobi IC(0)
// preconditioner on the plume case: at 1, 2 and 4 ranks the distributed
// CG takes at most half the iterations of the serial Jacobi-preconditioned
// Poisson.Solve on the same system and lands on the same potential, with
// no pivot needing the guard. The factor covers fewer couplings as ranks
// are added (ghost columns are dropped), so the count may grow with the
// rank count but stays in bound.
func TestDistSolverIC0HalvesIterations(t *testing.T) {
	ref := plumeRefinement(t)
	p, err := NewPoisson(ref.Fine, DefaultBC())
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-10
	charge := plumeCharge(p, 7)
	phiSerial := make([]float64, len(charge))
	serial, err := p.Solve(p.RHS(charge), phiSerial, sparse.SolveOptions{Tol: tol})
	if err != nil || !serial.Converged {
		t.Fatalf("serial solve: %+v, %v", serial, err)
	}
	scale := 0.0
	for _, v := range phiSerial {
		scale = math.Max(scale, math.Abs(v))
	}
	for _, nRanks := range []int{1, 2, 4} {
		coarseOwner := blockPartition(ref, nRanks)
		owners := NodeOwners(ref, coarseOwner)
		fineOwners := FineCellOwners(ref, coarseOwner)
		split := depositSplit(ref, charge, fineOwners, nRanks)
		var iters int
		var phi0 []float64
		world := simmpi.NewWorld(nRanks, simmpi.Options{})
		err := world.Run(func(comm *simmpi.Comm) {
			ds, err := NewDistSolverOwnerLocal(p, owners, fineOwners, nRanks, comm.Rank())
			if err != nil {
				panic(err)
			}
			if g := ds.pc.Guarded(); g != 0 {
				panic(fmt.Sprintf("rank %d: %d guarded pivots on the plume mesh", comm.Rank(), g))
			}
			phi := make([]float64, len(charge))
			res, err := ds.Solve(comm, split[comm.Rank()], phi, sparse.SolveOptions{Tol: tol})
			if err != nil {
				panic(err)
			}
			if !res.Converged {
				panic("distributed CG did not converge")
			}
			ds.GatherPhi(comm, phi)
			if comm.Rank() == 0 {
				iters, phi0 = res.Iterations, phi
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("ranks=%d: IC(0) %d iterations, serial Jacobi %d", nRanks, iters, serial.Iterations)
		if 2*iters > serial.Iterations {
			t.Errorf("ranks=%d: %d iterations, more than half of serial Jacobi's %d", nRanks, iters, serial.Iterations)
		}
		for n := range phiSerial {
			if math.Abs(phi0[n]-phiSerial[n]) > 1e-6*scale+1e-15 {
				t.Fatalf("ranks=%d node %d: %v vs serial %v", nRanks, n, phi0[n], phiSerial[n])
			}
		}
	}
}

// BenchmarkDistCGSolve times one cold-start distributed CG solve on the
// 2-rank plume partition in owner mode, and reports its iterations.
// ns/op ÷ iters/solve is the cost of one distributed CG iteration.
func BenchmarkDistCGSolve(b *testing.B) {
	ref := plumeRefinement(b)
	p, err := NewPoisson(ref.Fine, DefaultBC())
	if err != nil {
		b.Fatal(err)
	}
	const nRanks = 2
	charge := plumeCharge(p, 7)
	coarseOwner := blockPartition(ref, nRanks)
	owners := NodeOwners(ref, coarseOwner)
	fineOwners := FineCellOwners(ref, coarseOwner)
	split := depositSplit(ref, charge, fineOwners, nRanks)
	var iters int
	world := simmpi.NewWorld(nRanks, simmpi.Options{})
	err = world.Run(func(comm *simmpi.Comm) {
		ds, err := NewDistSolverOwnerLocal(p, owners, fineOwners, nRanks, comm.Rank())
		if err != nil {
			panic(err)
		}
		phi := make([]float64, len(charge))
		comm.Barrier()
		if comm.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			clear(phi)
			res, err := ds.Solve(comm, split[comm.Rank()], phi, sparse.SolveOptions{Tol: 1e-10})
			if err != nil {
				panic(err)
			}
			if comm.Rank() == 0 {
				iters += res.Iterations
			}
		}
		comm.Barrier()
		if comm.Rank() == 0 {
			b.StopTimer()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/solve")
}
