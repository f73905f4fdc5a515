package sparse

import "math"

// IC0 is the zero-fill incomplete Cholesky factor M = L Lᵀ of the
// owned×owned block of a LocalCSR. L keeps exactly the pattern of the
// block's lower triangle and the ghost columns are dropped, so as the
// preconditioner of the row-distributed CG it is block Jacobi with an
// IC(0) block solve — the analogue of PETSc's default parallel
// preconditioner (bjacobi, whose per-process ILU(0) is IC(0) for an SPD
// matrix under CG). Apply needs no communication; the factor depends on
// the partition and on nothing else.
//
// Only the strict lower triangle is stored, sized exactly, plus the
// inverse diagonal of L. The backward solve with Lᵀ walks the same rows
// as columns, so there is no upper-triangle copy.
type IC0 struct {
	rowPtr  []int32   // length n+1
	colIdx  []int32   // owned local ids, ascending within a row
	val     []float64 // L_ij, j < i
	invDiag []float64 // 1 / L_ii
	guarded int       // pivots replaced by the matrix diagonal
}

// NewIC0 factors the owned×owned block of l. Row i's pivot is
// a_ii − Σ L_ij²; incomplete factorization can drive it to zero or below
// on a matrix that is not an M-matrix, and then the row's diagonal a_ii
// takes its place (a nonpositive a_ii falls back to 1, as in Jacobi), so
// every L_ii is real and positive and M stays SPD.
func NewIC0(l *LocalCSR) *IC0 {
	n := l.NumOwned()
	f := &IC0{rowPtr: make([]int32, n+1)}
	nnz := 0
	for i := 0; i < n; i++ {
		for k := l.RowPtr[i]; k < l.RowPtr[i+1]; k++ {
			if int(l.ColIdx[k]) < i {
				nnz++
			}
		}
		f.rowPtr[i+1] = int32(nnz)
	}
	f.colIdx = make([]int32, 0, nnz)
	f.val = make([]float64, 0, nnz)
	f.invDiag = l.DiagOwned()
	// Owned local ids follow global order and each LocalCSR row is in
	// ascending global column order, so a row's lower entries come out
	// ascending: L_im for every m < j is final before L_ij needs it.
	pos := make([]int32, n) // 1 + slot of L_im in the current row i, 0 if absent
	for i := 0; i < n; i++ {
		for k := l.RowPtr[i]; k < l.RowPtr[i+1]; k++ {
			if j := l.ColIdx[k]; int(j) < i {
				f.colIdx = append(f.colIdx, j)
				f.val = append(f.val, l.Val[k])
			}
		}
		lo, hi := f.rowPtr[i], f.rowPtr[i+1]
		for s := lo; s < hi; s++ {
			pos[f.colIdx[s]] = s + 1
		}
		var sq float64
		for s := lo; s < hi; s++ {
			j := f.colIdx[s]
			v := f.val[s]
			for t := f.rowPtr[j]; t < f.rowPtr[j+1]; t++ {
				if p := pos[f.colIdx[t]]; p != 0 {
					v -= f.val[p-1] * f.val[t]
				}
			}
			v *= f.invDiag[j]
			f.val[s] = v
			sq += v * v
		}
		for s := lo; s < hi; s++ {
			pos[f.colIdx[s]] = 0
		}
		a := f.invDiag[i]
		piv := a - sq
		if piv <= 0 {
			f.guarded++
			piv = a
			if piv <= 0 {
				piv = 1
			}
		}
		f.invDiag[i] = 1 / math.Sqrt(piv)
	}
	return f
}

// Apply sets dst = M⁻¹ r = L⁻ᵀ L⁻¹ r: a forward solve with L, then a
// backward solve with Lᵀ in place. dst and r have the factor's dimension
// (the owned rows); dst may alias r.
//
//commvet:hot
func (f *IC0) Apply(dst, r []float64) {
	n := len(f.invDiag)
	for i := 0; i < n; i++ {
		s := r[i]
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			s -= f.val[k] * dst[f.colIdx[k]]
		}
		dst[i] = s * f.invDiag[i]
	}
	for i := n - 1; i >= 0; i-- {
		x := dst[i] * f.invDiag[i]
		dst[i] = x
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			dst[f.colIdx[k]] -= f.val[k] * x
		}
	}
}

// ApplyNNZ returns the factor entries one Apply reads: the strict lower
// triangle and the diagonal, once per triangular solve.
func (f *IC0) ApplyNNZ() int { return 2 * (len(f.val) + len(f.invDiag)) }

// Guarded returns how many pivots the factorization replaced by the
// matrix diagonal.
func (f *IC0) Guarded() int { return f.guarded }

// Bytes reports the factor's resident storage.
func (f *IC0) Bytes() int64 {
	return int64(4*len(f.rowPtr) + 4*len(f.colIdx) + 8*len(f.val) + 8*len(f.invDiag))
}
