package sparse

import (
	"fmt"
	"math"
)

// Preconditioner approximates the inverse of a matrix: Apply(dst, r) sets
// dst ~= M^{-1} r.
type Preconditioner interface {
	Apply(dst, r []float64)
}

// IdentityPrecond is the trivial preconditioner.
type IdentityPrecond struct{}

// Apply copies r into dst.
func (IdentityPrecond) Apply(dst, r []float64) { copy(dst, r) }

// JacobiPrecond scales by the inverse diagonal.
type JacobiPrecond struct {
	invDiag []float64
}

// NewJacobi builds a Jacobi preconditioner from the diagonal of A. Zero
// diagonal entries fall back to 1 (identity on that row).
func NewJacobi(a *CSR) *JacobiPrecond {
	d := a.Diag()
	inv := make([]float64, len(d))
	for i, x := range d {
		if x != 0 {
			inv[i] = 1 / x
		} else {
			inv[i] = 1
		}
	}
	return &JacobiPrecond{invDiag: inv}
}

// Apply sets dst = D^{-1} r.
func (p *JacobiPrecond) Apply(dst, r []float64) {
	for i := range r {
		dst[i] = p.invDiag[i] * r[i]
	}
}

// DefaultTol is the default relative-residual convergence tolerance shared
// by every Krylov solver in the repository — sparse.CG and the distributed
// pic.DistSolver both fall back to it when SolveOptions.Tol
// is zero, so "solver default accuracy" means one number everywhere.
// (Simulation configs may still choose a looser application-level
// tolerance explicitly, e.g. core.Config.PoissonTol.)
const DefaultTol = 1e-10

// SolveOptions configures the iterative solvers. Zero values select
// defaults: MaxIter = 10*N (min 100), Tol = DefaultTol (relative residual).
type SolveOptions struct {
	MaxIter int
	Tol     float64
	Precond Preconditioner
}

// WithDefaults fills zero fields with the shared solver defaults for an
// n-dimensional system. Exported so out-of-package solvers with the same
// options surface (the distributed Poisson solver) resolve identical
// defaults from the single definition here.
func (o SolveOptions) WithDefaults(n int) SolveOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 10 * n
		if o.MaxIter < 100 {
			o.MaxIter = 100
		}
	}
	if o.Tol <= 0 {
		o.Tol = DefaultTol
	}
	if o.Precond == nil {
		o.Precond = IdentityPrecond{}
	}
	return o
}

// SolveResult reports solver statistics.
type SolveResult struct {
	Iterations int
	Residual   float64 // final relative residual |b - Ax| / |b|
	Converged  bool
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm2(a []float64) float64 { return math.Sqrt(dot(a, a)) }

// axpy computes y += alpha * x.
func axpy(alpha float64, x, y []float64) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// CG solves A x = b for symmetric positive-definite A using the
// preconditioned conjugate gradient method. x is used as the initial guess
// and overwritten with the solution.
func CG(a *CSR, b, x []float64, opts SolveOptions) (SolveResult, error) {
	n := a.N
	if len(b) != n || len(x) != n {
		return SolveResult{}, fmt.Errorf("sparse: CG dimension mismatch (N=%d len(b)=%d len(x)=%d)", n, len(b), len(x))
	}
	o := opts.WithDefaults(n)
	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	bnorm := norm2(b)
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return SolveResult{Converged: true}, nil
	}
	o.Precond.Apply(z, r)
	copy(p, z)
	rz := dot(r, z)
	for it := 0; it < o.MaxIter; it++ {
		res := norm2(r) / bnorm
		if res <= o.Tol {
			return SolveResult{Iterations: it, Residual: res, Converged: true}, nil
		}
		a.MulVec(ap, p)
		pap := dot(p, ap)
		if pap <= 0 {
			return SolveResult{Iterations: it, Residual: res},
				fmt.Errorf("sparse: CG breakdown (p^T A p = %g); matrix not SPD?", pap)
		}
		alpha := rz / pap
		axpy(alpha, p, x)
		axpy(-alpha, ap, r)
		o.Precond.Apply(z, r)
		rzNew := dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return SolveResult{Iterations: o.MaxIter, Residual: norm2(r) / bnorm}, nil
}
