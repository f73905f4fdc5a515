package pic

import (
	"fmt"
	"math"
	"testing"

	"github.com/plasma-hpc/dsmcpic/internal/geom"
	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/particle"
	"github.com/plasma-hpc/dsmcpic/internal/rng"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
	"github.com/plasma-hpc/dsmcpic/internal/sparse"
)

func boxRefinement(t testing.TB, n int) *mesh.Refinement {
	t.Helper()
	coarse, err := mesh.Box(n, n, n, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mesh.RefineUniform(coarse)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestNewPoissonRequiresBC(t *testing.T) {
	ref := boxRefinement(t, 2)
	if _, err := NewPoisson(ref.Fine, BC{}); err == nil {
		t.Error("empty BC accepted")
	}
	if _, err := NewPoisson(ref.Fine, BC{mesh.Inlet: 0}); err == nil {
		t.Error("BC with no matching faces accepted")
	}
}

func TestPoissonMatrixSymmetric(t *testing.T) {
	ref := boxRefinement(t, 2)
	p, err := NewPoisson(ref.Fine, DefaultBC())
	if err != nil {
		t.Fatal(err)
	}
	if !p.K.IsSymmetric(1e-12) {
		t.Error("stiffness matrix not symmetric after Dirichlet elimination")
	}
}

// setLinearDirichlet pins every Dirichlet node to f(pos); with zero charge
// the FEM solution must reproduce f exactly when f is linear.
func setLinearDirichlet(p *Poisson, f func(geom.Vec3) float64) {
	for n := range p.IsDirichlet {
		if p.IsDirichlet[n] {
			p.DirichletVal[n] = f(p.Fine.Nodes[n])
		}
	}
}

func TestPoissonReproducesLinearPotential(t *testing.T) {
	ref := boxRefinement(t, 2)
	p, err := NewPoisson(ref.Fine, DefaultBC())
	if err != nil {
		t.Fatal(err)
	}
	f := func(q geom.Vec3) float64 { return 2*q.X + 3*q.Y - q.Z + 0.5 }
	setLinearDirichlet(p, f)
	b := p.RHS(make([]float64, ref.Fine.NumNodes()))
	phi := make([]float64, ref.Fine.NumNodes())
	res, err := p.Solve(b, phi, sparse.SolveOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %+v", res)
	}
	for n, q := range p.Fine.Nodes {
		if math.Abs(phi[n]-f(q)) > 1e-6 {
			t.Fatalf("node %d: phi=%v want %v", n, phi[n], f(q))
		}
	}
	// E = -grad(2x+3y-z) = (-2,-3,1), constant everywhere.
	e := p.ElectricField(phi, nil)
	for c, ec := range e {
		if geom.Dist(ec, geom.V(-2, -3, 1)) > 1e-6 {
			t.Fatalf("cell %d: E=%v", c, ec)
		}
	}
}

func TestPoissonChargeCreatesPotentialWell(t *testing.T) {
	ref := boxRefinement(t, 3)
	p, err := NewPoisson(ref.Fine, DefaultBC())
	if err != nil {
		t.Fatal(err)
	}
	// A positive point charge at the center with grounded boundary:
	// potential positive inside, max near the center.
	charge := make([]float64, ref.Fine.NumNodes())
	center := geom.V(0.5, 0.5, 0.5)
	best, bestDist := -1, math.Inf(1)
	for n, q := range ref.Fine.Nodes {
		if d := geom.Dist(q, center); d < bestDist {
			best, bestDist = n, d
		}
	}
	charge[best] = 1e-12 // coulombs
	b := p.RHS(charge)
	phi := make([]float64, ref.Fine.NumNodes())
	if _, err := p.Solve(b, phi, sparse.SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	if phi[best] <= 0 {
		t.Errorf("potential at charge = %v, want > 0", phi[best])
	}
	for n := range phi {
		if phi[n] < -1e-9*math.Abs(phi[best]) {
			t.Fatalf("negative potential %v at node %d with positive charge", phi[n], n)
		}
		if phi[n] > phi[best]+1e-9 {
			t.Fatalf("potential max not at the charge: node %d has %v > %v", n, phi[n], phi[best])
		}
	}
}

func chargedAt(ref *mesh.Refinement, pos geom.Vec3) particle.Particle {
	cell := ref.Coarse.FindCellBrute(pos)
	return particle.Particle{Pos: pos, Sp: particle.HPlus, Cell: int32(cell)}
}

func TestDepositConservesCharge(t *testing.T) {
	ref := boxRefinement(t, 2)
	st := particle.NewStore(0)
	r := rng.New(31, 0)
	const n = 500
	for k := 0; k < n; k++ {
		st.Append(chargedAt(ref, geom.V(r.Float64(), r.Float64(), r.Float64())))
	}
	// Add neutrals that must not deposit.
	for k := 0; k < 100; k++ {
		p := chargedAt(ref, geom.V(r.Float64(), r.Float64(), r.Float64()))
		p.Sp = particle.H
		st.Append(p)
	}
	weight := func(particle.Species) float64 { return 2.5 }
	nodeCharge := make([]float64, ref.Fine.NumNodes())
	fineCell := make([]int32, st.Len())
	DepositCharge(st, ref, weight, nodeCharge, fineCell, nil, nil)
	want := float64(n) * 2.5 * particle.ElectronCharge
	if got := TotalCharge(nodeCharge); math.Abs(got-want) > 1e-9*want {
		t.Errorf("total charge %v, want %v", got, want)
	}
	// fineCell consistency.
	for i := 0; i < st.Len(); i++ {
		if st.Sp[i] == particle.H {
			if fineCell[i] != -1 {
				t.Fatal("neutral got a fine cell")
			}
			continue
		}
		fc := int(fineCell[i])
		if fc < 0 || ref.CoarseOf(fc) != int(st.Cell[i]) {
			t.Fatalf("fine cell %d not nested in coarse %d", fc, st.Cell[i])
		}
	}
}

func TestDepositAtNode(t *testing.T) {
	ref := boxRefinement(t, 1)
	st := particle.NewStore(0)
	// Particle exactly at a fine node: all charge lands on that node.
	target := ref.Fine.Nodes[ref.Fine.Cells[0][0]]
	// Nudge inside the cell so location is unambiguous, then use barycenter
	// instead for exactness: deposit at fine cell 0's barycenter spreads
	// evenly over its 4 nodes.
	bary := ref.Fine.Centroids[0]
	p := chargedAt(ref, bary)
	st.Append(p)
	nodeCharge := make([]float64, ref.Fine.NumNodes())
	DepositCharge(st, ref, func(particle.Species) float64 { return 1 }, nodeCharge, nil, nil, nil)
	q := particle.ElectronCharge
	for _, n := range ref.Fine.Cells[0] {
		if math.Abs(nodeCharge[n]-q/4) > 1e-12*q {
			t.Errorf("node %d got %v, want q/4=%v", n, nodeCharge[n], q/4)
		}
	}
	_ = target
}

func TestBorisPushElectricOnly(t *testing.T) {
	ref := boxRefinement(t, 1)
	st := particle.NewStore(0)
	st.Append(chargedAt(ref, geom.V(0.5, 0.5, 0.5)))
	st.Append(particle.Particle{Pos: geom.V(0.5, 0.5, 0.5), Sp: particle.H, Cell: 0}) // neutral: untouched
	e := make([]geom.Vec3, ref.Fine.NumCells())
	for i := range e {
		e[i] = geom.V(100, 0, 0)
	}
	fineCell := make([]int32, st.Len())
	DepositCharge(st, ref, func(particle.Species) float64 { return 1 }, make([]float64, ref.Fine.NumNodes()), fineCell, nil, nil)
	dt := 1e-6
	BorisPush(st, e, fineCell, geom.Vec3{}, dt, nil)
	info := particle.InfoOf(particle.HPlus)
	wantVx := info.Charge / info.Mass * 100 * dt
	if math.Abs(st.Vel[0].X-wantVx) > 1e-9*wantVx {
		t.Errorf("ion vx = %v, want %v", st.Vel[0].X, wantVx)
	}
	if st.Vel[1].Norm() != 0 {
		t.Error("neutral was pushed")
	}
}

func TestBorisPushMagneticRotationPreservesSpeed(t *testing.T) {
	ref := boxRefinement(t, 1)
	st := particle.NewStore(0)
	p := chargedAt(ref, geom.V(0.5, 0.5, 0.5))
	p.Vel = geom.V(1e4, 0, 0)
	st.Append(p)
	e := make([]geom.Vec3, ref.Fine.NumCells()) // zero E
	fineCell := []int32{int32(ref.FindFineCell(int(st.Cell[0]), st.Pos[0]))}
	b := geom.V(0, 0, 0.1) // tesla
	speed0 := st.Vel[0].Norm()
	for step := 0; step < 100; step++ {
		BorisPush(st, e, fineCell, b, 1e-9, nil)
	}
	if math.Abs(st.Vel[0].Norm()-speed0) > 1e-9*speed0 {
		t.Errorf("speed drifted under pure B: %v -> %v", speed0, st.Vel[0].Norm())
	}
	// Velocity must actually rotate (x component decreases).
	if st.Vel[0].Y == 0 {
		t.Error("no rotation happened")
	}
}

func TestNodeOwnersCoverAllNodes(t *testing.T) {
	ref := boxRefinement(t, 2)
	coarseOwner := make([]int32, ref.Coarse.NumCells())
	for c := range coarseOwner {
		coarseOwner[c] = int32(c % 4)
	}
	owners := NodeOwners(ref, coarseOwner)
	for n, r := range owners {
		if r < 0 || r >= 4 {
			t.Fatalf("node %d unowned: %d", n, r)
		}
	}
}

func TestDistSolverMatchesSerial(t *testing.T) {
	ref := boxRefinement(t, 2)
	p, err := NewPoisson(ref.Fine, DefaultBC())
	if err != nil {
		t.Fatal(err)
	}
	// Random interior charge.
	r := rng.New(41, 0)
	charge := make([]float64, ref.Fine.NumNodes())
	for n := range charge {
		if !p.IsDirichlet[n] {
			charge[n] = 1e-13 * r.Float64()
		}
	}
	// Serial reference.
	b := p.RHS(charge)
	phiSerial := make([]float64, ref.Fine.NumNodes())
	if _, err := p.Solve(b, phiSerial, sparse.SolveOptions{Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	// Distributed: 4 ranks, block partition of coarse cells, charge split
	// across ranks (each rank contributes a share; allreduce must restore).
	const nRanks = 4
	coarseOwner := make([]int32, ref.Coarse.NumCells())
	for c := range coarseOwner {
		coarseOwner[c] = int32(c * nRanks / len(coarseOwner))
	}
	owners := NodeOwners(ref, coarseOwner)
	fineOwners := FineCellOwners(ref, coarseOwner)
	scale := 0.0
	for _, v := range phiSerial {
		scale = math.Max(scale, math.Abs(v))
	}
	// Split each node's charge evenly across the ranks whose fine cells
	// touch it — the support DepositCharge actually produces, which the
	// owner-local boundary reduction relies on (the replicated allreduce
	// sums any split, so the same one serves both modes).
	splitCharge := depositSplit(ref, charge, fineOwners, nRanks)
	for _, mode := range []ExchangeMode{ExchangeOwnerLocal, ExchangeReplicated} {
		t.Run(mode.String(), func(t *testing.T) {
			world := simmpi.NewWorld(nRanks, simmpi.Options{})
			results := make([][]float64, nRanks)
			err = world.Run(func(comm *simmpi.Comm) {
				ds, err := newTestSolver(p, owners, fineOwners, nRanks, comm.Rank(), mode)
				if err != nil {
					panic(err)
				}
				phi := make([]float64, len(charge))
				res, err := ds.Solve(comm, splitCharge[comm.Rank()], phi, sparse.SolveOptions{Tol: 1e-12})
				if err != nil {
					panic(err)
				}
				if !res.Converged {
					panic("distributed CG did not converge")
				}
				ds.GatherPhi(comm, phi) // owner mode: replicate before comparing
				results[comm.Rank()] = phi
			})
			if err != nil {
				t.Fatal(err)
			}
			for rk := 0; rk < nRanks; rk++ {
				for n := range phiSerial {
					if math.Abs(results[rk][n]-phiSerial[n]) > 1e-6*scale+1e-15 {
						t.Fatalf("rank %d node %d: %v vs serial %v", rk, n, results[rk][n], phiSerial[n])
					}
				}
			}
		})
	}
}

func TestDistSolverRejectsBadOwnership(t *testing.T) {
	ref := boxRefinement(t, 1)
	p, err := NewPoisson(ref.Fine, DefaultBC())
	if err != nil {
		t.Fatal(err)
	}
	owners := make([]int32, ref.Fine.NumNodes())
	owners[0] = 99
	if _, err := NewDistSolver(p, owners, 2, 0, ExchangeReplicated); err == nil {
		t.Error("invalid owner accepted")
	}
	if _, err := NewDistSolver(p, owners[:3], 2, 0, ExchangeReplicated); err == nil {
		t.Error("short owner table accepted")
	}
	good := make([]int32, ref.Fine.NumNodes())
	if _, err := NewDistSolver(p, good, 2, 0, ExchangeOwnerLocal); err == nil {
		t.Error("owner-local mode must demand NewDistSolverOwnerLocal")
	}
	if _, err := NewDistSolverOwnerLocal(p, good, []int32{0}, 2, 0); err == nil {
		t.Error("short fine-owner table accepted")
	}
	badFine := make([]int32, ref.Fine.NumCells())
	badFine[0] = 7
	if _, err := NewDistSolverOwnerLocal(p, good, badFine, 2, 0); err == nil {
		t.Error("invalid fine-cell owner accepted")
	}
}

func BenchmarkPoissonAssembly(b *testing.B) {
	coarse, err := mesh.Nozzle(4, 8, 0.05, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := mesh.RefineUniform(coarse)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewPoisson(ref.Fine, DefaultBC()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPoissonSolve(b *testing.B) {
	coarse, err := mesh.Nozzle(4, 8, 0.05, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := mesh.RefineUniform(coarse)
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewPoisson(ref.Fine, DefaultBC())
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1, 0)
	charge := make([]float64, ref.Fine.NumNodes())
	for n := range charge {
		charge[n] = 1e-14 * r.Float64()
	}
	rhs := p.RHS(charge)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phi := make([]float64, len(charge))
		if _, err := p.Solve(rhs, phi, sparse.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// plumeRefinement builds the bench plume case's nozzle grids (the geometry
// of cmd/bench and cmd/plasmasim).
func plumeRefinement(t testing.TB) *mesh.Refinement {
	t.Helper()
	coarse, err := mesh.Nozzle(3, 8, 0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mesh.RefineUniform(coarse)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestHaloIndexListsConsistent checks the ghost-refresh (VecScatter)
// lists on the 4-rank plume partition, compared through each rank's
// local⇄global map: every pairing agrees across ranks (A ships to B
// exactly what B expects from A, in the same order), receives cover
// exactly the ghost tail, and sends only ever carry owned nodes.
func TestHaloIndexListsConsistent(t *testing.T) {
	ref := plumeRefinement(t)
	p, err := NewPoisson(ref.Fine, DefaultBC())
	if err != nil {
		t.Fatal(err)
	}
	const nRanks = 4
	coarseOwner := blockPartition(ref, nRanks)
	owners := NodeOwners(ref, coarseOwner)
	fineOwners := FineCellOwners(ref, coarseOwner)
	solvers := make([]*DistSolver, nRanks)
	for rk := range solvers {
		if solvers[rk], err = NewDistSolverOwnerLocal(p, owners, fineOwners, nRanks, rk); err != nil {
			t.Fatal(err)
		}
	}
	global := func(d *DistSolver, ids []int32) []int32 {
		out := make([]int32, len(ids))
		for k, li := range ids {
			out[k] = d.local.LocalToGlobal(li)
		}
		return out
	}
	anyPair := false
	for a := 0; a < nRanks; a++ {
		for bk := 0; bk < nRanks; bk++ {
			if a == bk {
				continue
			}
			send := global(solvers[a], solvers[a].sendIdx[bk])
			recv := global(solvers[bk], solvers[bk].recvIdx[a])
			if len(send) != len(recv) {
				t.Fatalf("rank %d sends %d nodes to %d, which expects %d", a, len(send), bk, len(recv))
			}
			for i := range send {
				if send[i] != recv[i] {
					t.Fatalf("pair (%d,%d) disagrees at slot %d: %d vs %d", a, bk, i, send[i], recv[i])
				}
				if owners[send[i]] != int32(a) {
					t.Fatalf("rank %d ships node %d it does not own", a, send[i])
				}
			}
			if len(send) > 0 {
				anyPair = true
			}
		}
	}
	if !anyPair {
		t.Fatal("no halo pair on a 4-rank partition — boundary detection broken")
	}
	// Ghost coverage: each rank's receives are exactly its ghost tail,
	// each listed under the ghost's owner.
	for rk, d := range solvers {
		got := 0
		for q := 0; q < nRanks; q++ {
			for _, li := range d.recvIdx[q] {
				if li < int32(d.local.NumOwned()) {
					t.Fatalf("rank %d receives into owned slot %d", rk, li)
				}
				if g := d.local.LocalToGlobal(li); owners[g] != int32(q) {
					t.Fatalf("rank %d: ghost %d listed under rank %d but owned by %d", rk, g, q, owners[g])
				}
				got++
			}
		}
		if got != d.local.NumGhost() {
			t.Fatalf("rank %d: recv lists cover %d slots for %d ghosts", rk, got, d.local.NumGhost())
		}
	}
}

// TestDistSolverDefaultTol pins that a zero SolveOptions.Tol resolves to
// the shared sparse.DefaultTol (satellite: the former 1e-8-here vs
// 1e-10-in-sparse split is gone).
func TestDistSolverDefaultTol(t *testing.T) {
	ref := boxRefinement(t, 2)
	p, err := NewPoisson(ref.Fine, DefaultBC())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11, 0)
	charge := make([]float64, ref.Fine.NumNodes())
	for n := range charge {
		if !p.IsDirichlet[n] {
			charge[n] = 1e-13 * r.Float64()
		}
	}
	owners := make([]int32, ref.Fine.NumNodes())
	fineOwners := make([]int32, ref.Fine.NumCells())
	world := simmpi.NewWorld(1, simmpi.Options{})
	err = world.Run(func(comm *simmpi.Comm) {
		ds, err := NewDistSolverOwnerLocal(p, owners, fineOwners, 1, 0)
		if err != nil {
			panic(err)
		}
		phi := make([]float64, len(charge))
		res, err := ds.Solve(comm, charge, phi, sparse.SolveOptions{})
		if err != nil {
			panic(err)
		}
		if !res.Converged {
			panic("CG did not converge at the default tolerance")
		}
		if res.Residual > sparse.DefaultTol {
			panic(fmt.Sprintf("converged residual %g above sparse.DefaultTol %g", res.Residual, sparse.DefaultTol))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParseExchangeMode pins the flag spellings and the default.
func TestParseExchangeMode(t *testing.T) {
	for _, mode := range []ExchangeMode{ExchangeOwnerLocal, ExchangeReplicated} {
		got, err := ParseExchangeMode(mode.String())
		if err != nil || got != mode {
			t.Errorf("round-trip of %v: got %v, err %v", mode, got, err)
		}
	}
	for _, bad := range []string{"gatherv", "halo", ""} {
		if _, err := ParseExchangeMode(bad); err == nil {
			t.Errorf("bad mode %q accepted", bad)
		}
	}
	if ExchangeMode(0) != ExchangeOwnerLocal {
		t.Error("zero value must be the owner-local default")
	}
}
