package sparse

import (
	"math"
	"testing"

	"github.com/plasma-hpc/dsmcpic/internal/rng"
)

// ic0Of factors the whole of a (every row owned, no ghosts).
func ic0Of(t testing.TB, a *CSR) *IC0 {
	t.Helper()
	all := make([]int32, a.N)
	for i := range all {
		all[i] = int32(i)
	}
	l, err := NewLocalCSR(a, all)
	if err != nil {
		t.Fatal(err)
	}
	return NewIC0(l)
}

func TestIC0SolvesLaplace(t *testing.T) {
	a := laplace2D(15)
	r := rng.New(5, 0)
	b := make([]float64, a.N)
	for i := range b {
		b[i] = r.Float64() - 0.5
	}
	x := make([]float64, a.N)
	res, err := CG(a, b, x, SolveOptions{Precond: ic0Of(t, a), Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("IC(0)-CG did not converge: %+v", res)
	}
	if r := residual(a, b, x); r > 1e-8 {
		t.Errorf("residual %g", r)
	}
}

func TestIC0FewerIterationsThanJacobi(t *testing.T) {
	a := laplace2D(25)
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	x1 := make([]float64, a.N)
	jac, err := CG(a, b, x1, SolveOptions{Precond: NewJacobi(a), Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	x2 := make([]float64, a.N)
	ic, err := CG(a, b, x2, SolveOptions{Precond: ic0Of(t, a), Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !jac.Converged || !ic.Converged {
		t.Fatal("solvers did not converge")
	}
	// On the 5-point Laplacian with this smooth right-hand side IC(0)
	// needs 28 iterations to Jacobi's 52; the plume Poisson matrix, where
	// the gain is larger, is held to half in package pic.
	t.Logf("Jacobi %d iterations, IC(0) %d", jac.Iterations, ic.Iterations)
	if 5*ic.Iterations > 3*jac.Iterations {
		t.Errorf("IC(0) iterations %d not at most 0.6x Jacobi's %d", ic.Iterations, jac.Iterations)
	}
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-6 {
			t.Fatalf("solutions differ at %d", i)
		}
	}
}

func TestIC0IdentityMatrix(t *testing.T) {
	b := NewBuilder(4)
	for i := 0; i < 4; i++ {
		b.Add(i, i, 1)
	}
	a, _ := b.ToCSR()
	p := ic0Of(t, a)
	r := []float64{1, -2, 3, -4}
	dst := make([]float64, 4)
	p.Apply(dst, r)
	for i := range r {
		if math.Abs(dst[i]-r[i]) > 1e-14 {
			t.Errorf("identity IC(0): dst[%d]=%v", i, dst[i])
		}
	}
}

// TestIC0MatchesMatrixOnPattern checks the defining property of IC(0):
// (L Lᵀ)_ij = a_ij at every stored (i, j) of the matrix.
func TestIC0MatchesMatrixOnPattern(t *testing.T) {
	a := laplace2D(9)
	p := ic0Of(t, a)
	if p.Guarded() != 0 {
		t.Fatalf("%d guarded pivots on the 2D Laplacian", p.Guarded())
	}
	lij := func(i, j int) float64 {
		if i == j {
			return 1 / p.invDiag[i]
		}
		for k := p.rowPtr[i]; k < p.rowPtr[i+1]; k++ {
			if int(p.colIdx[k]) == j {
				return p.val[k]
			}
		}
		return 0
	}
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := int(a.ColIdx[k])
			var s float64
			for m := 0; m <= i && m <= j; m++ {
				s += lij(i, m) * lij(j, m)
			}
			if math.Abs(s-a.Val[k]) > 1e-12 {
				t.Fatalf("(LLᵀ)_%d,%d = %v, a = %v", i, j, s, a.Val[k])
			}
		}
	}
}

// TestIC0TridiagonalIsCholesky: a tridiagonal matrix has no fill-in, so
// IC(0) is its exact Cholesky factor and preconditioned CG converges in
// one iteration.
func TestIC0TridiagonalIsCholesky(t *testing.T) {
	a := laplace1D(50)
	b := make([]float64, a.N)
	r := rng.New(9, 0)
	for i := range b {
		b[i] = r.Float64() - 0.5
	}
	p := ic0Of(t, a)
	if p.Guarded() != 0 {
		t.Fatalf("%d guarded pivots on an SPD tridiagonal matrix", p.Guarded())
	}
	x := make([]float64, a.N)
	res, err := CG(a, b, x, SolveOptions{Precond: p, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 1 {
		t.Fatalf("exact-factor CG took %+v, want convergence in 1 iteration", res)
	}
}

// TestIC0PivotGuard: Kershaw's 4x4 matrix is SPD, yet its IC(0) drives
// the last pivot negative (to -5). The guard substitutes the diagonal,
// M stays SPD, and CG still converges.
func TestIC0PivotGuard(t *testing.T) {
	k := [4][4]float64{{3, -2, 0, 2}, {-2, 3, -2, 0}, {0, -2, 3, -2}, {2, 0, -2, 3}}
	bld := NewBuilder(4)
	for i := range k {
		for j, v := range k[i] {
			if v != 0 {
				bld.Add(i, j, v)
			}
		}
	}
	a, err := bld.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	p := ic0Of(t, a)
	if p.Guarded() != 1 {
		t.Fatalf("guarded %d pivots on Kershaw's matrix, want 1", p.Guarded())
	}
	for i, v := range p.invDiag {
		if !(v > 0) || math.IsInf(v, 0) {
			t.Fatalf("1/L_%d%d = %v, want finite and positive", i, i, v)
		}
	}
	b := []float64{1, 2, -1, 0.5}
	x := make([]float64, 4)
	res, err := CG(a, b, x, SolveOptions{Precond: p, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG with a guarded factor did not converge: %+v", res)
	}
	if r := residual(a, b, x); r > 1e-10 {
		t.Errorf("residual %g", r)
	}
}

// TestIC0DropsGhostColumns: the factor of a partition-local view depends
// only on its owned×owned block — it equals the factor of that block
// extracted as a matrix of its own, bitwise.
func TestIC0DropsGhostColumns(t *testing.T) {
	m := laplace2D(10)
	owned := stripedOwned(m.N, 3, 1, 7)
	l, err := NewLocalCSR(m, owned)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumGhost() == 0 {
		t.Fatal("striped partition has no ghosts")
	}
	blk := NewBuilder(len(owned))
	for li, g := range owned {
		for k := m.RowPtr[g]; k < m.RowPtr[g+1]; k++ {
			if lj := l.LocalOf(m.ColIdx[k]); lj < int32(len(owned)) {
				blk.Add(li, int(lj), m.Val[k])
			}
		}
	}
	block, err := blk.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	pl, pb := NewIC0(l), ic0Of(t, block)
	r := rng.New(3, 0)
	in := make([]float64, len(owned))
	for i := range in {
		in[i] = r.Float64() - 0.5
	}
	zl, zb := make([]float64, len(owned)), make([]float64, len(owned))
	pl.Apply(zl, in)
	pb.Apply(zb, in)
	for i := range zl {
		if math.Float64bits(zl[i]) != math.Float64bits(zb[i]) { // same entries, same order
			t.Fatalf("entry %d: local-view factor %v, block factor %v", i, zl[i], zb[i])
		}
	}
	if pl.Bytes() != pb.Bytes() || pl.ApplyNNZ() != pb.ApplyNNZ() {
		t.Fatalf("factor sizes differ: %d/%d bytes, %d/%d entries", pl.Bytes(), pb.Bytes(), pl.ApplyNNZ(), pb.ApplyNNZ())
	}
}

func TestIC0ApplyAllocatesNothing(t *testing.T) {
	a := laplace2D(20)
	p := ic0Of(t, a)
	r := make([]float64, a.N)
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	dst := make([]float64, a.N)
	if n := testing.AllocsPerRun(20, func() { p.Apply(dst, r) }); n != 0 {
		t.Fatalf("Apply allocates %v times per call", n)
	}
}

func BenchmarkIC0Apply(b *testing.B) {
	a := laplace2D(100)
	p := ic0Of(b, a)
	r := make([]float64, a.N)
	for i := range r {
		r[i] = 1
	}
	dst := make([]float64, a.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Apply(dst, r)
	}
}
