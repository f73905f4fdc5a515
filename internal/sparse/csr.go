// Package sparse provides compressed sparse row (CSR) matrices and a
// preconditioned conjugate-gradient solver with simple preconditioners. It
// replaces the PETSc KSP dependency of the paper's solver: the PIC Poisson
// equation is discretized into K*phi = b with K symmetric positive
// definite in CSR format (paper §IV-C) and solved iteratively.
package sparse

import (
	"fmt"
	"sort"
)

// CSR is a square sparse matrix in compressed sparse row format.
type CSR struct {
	N      int
	RowPtr []int32   // length N+1
	ColIdx []int32   // length nnz, ascending within each row
	Val    []float64 // length nnz
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// MulVec computes dst = M * x. dst and x must have length N and must not
// alias.
func (m *CSR) MulVec(dst, x []float64) {
	for i := 0; i < m.N; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		dst[i] = s
	}
}

// MulVecRows computes dst[i] = (M * x)[i] for i in [rowLo, rowHi) only;
// other entries of dst are untouched. This is the kernel of the
// row-distributed parallel matvec in the PIC field solver.
func (m *CSR) MulVecRows(dst, x []float64, rowLo, rowHi int) {
	for i := rowLo; i < rowHi; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		dst[i] = s
	}
}

// Diag extracts the main diagonal. Missing diagonal entries are zero.
func (m *CSR) Diag() []float64 {
	d := make([]float64, m.N)
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if int(m.ColIdx[k]) == i {
				d[i] = m.Val[k]
				break
			}
		}
	}
	return d
}

// At returns M[i][j] (zero if not stored). O(log row nnz).
func (m *CSR) At(i, j int) float64 {
	lo, hi := int(m.RowPtr[i]), int(m.RowPtr[i+1])
	k := lo + sort.Search(hi-lo, func(k int) bool { return m.ColIdx[lo+k] >= int32(j) })
	if k < hi && int(m.ColIdx[k]) == j {
		return m.Val[k]
	}
	return 0
}

// Transpose returns M^T.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		N:      m.N,
		RowPtr: make([]int32, m.N+1),
		ColIdx: make([]int32, m.NNZ()),
		Val:    make([]float64, m.NNZ()),
	}
	for _, j := range m.ColIdx {
		t.RowPtr[j+1]++
	}
	for i := 0; i < m.N; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	pos := make([]int32, m.N)
	copy(pos, t.RowPtr[:m.N])
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			t.ColIdx[pos[j]] = int32(i)
			t.Val[pos[j]] = m.Val[k]
			pos[j]++
		}
	}
	return t
}

// IsSymmetric reports whether M equals its transpose within tol.
func (m *CSR) IsSymmetric(tol float64) bool {
	t := m.Transpose()
	if t.NNZ() != m.NNZ() {
		return false
	}
	for i := range m.Val {
		if m.ColIdx[i] != t.ColIdx[i] {
			return false
		}
		d := m.Val[i] - t.Val[i]
		if d > tol || d < -tol {
			return false
		}
	}
	for i := range m.RowPtr {
		if m.RowPtr[i] != t.RowPtr[i] {
			return false
		}
	}
	return true
}

// Builder accumulates (i, j, v) triplets; duplicates sum. Use ToCSR to
// finalize. The zero Builder is not usable; construct with NewBuilder.
type Builder struct {
	n       int
	rows    []map[int32]float64
	entries int
}

// NewBuilder returns a builder for an n x n matrix.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, rows: make([]map[int32]float64, n)}
}

// Add accumulates v into entry (i, j).
func (b *Builder) Add(i, j int, v float64) {
	if b.rows[i] == nil {
		b.rows[i] = make(map[int32]float64, 8)
	}
	if _, ok := b.rows[i][int32(j)]; !ok {
		b.entries++
	}
	b.rows[i][int32(j)] += v
}

// Set overwrites entry (i, j).
func (b *Builder) Set(i, j int, v float64) {
	if b.rows[i] == nil {
		b.rows[i] = make(map[int32]float64, 8)
	}
	if _, ok := b.rows[i][int32(j)]; !ok {
		b.entries++
	}
	b.rows[i][int32(j)] = v
}

// ClearRow removes all entries of row i (used to impose Dirichlet rows).
func (b *Builder) ClearRow(i int) {
	b.entries -= len(b.rows[i])
	b.rows[i] = nil
}

// ToCSR finalizes the builder into a CSR matrix with sorted columns.
func (b *Builder) ToCSR() (*CSR, error) {
	m := &CSR{
		N:      b.n,
		RowPtr: make([]int32, b.n+1),
		ColIdx: make([]int32, 0, b.entries),
		Val:    make([]float64, 0, b.entries),
	}
	var cols []int32
	for i := 0; i < b.n; i++ {
		cols = cols[:0]
		for j := range b.rows[i] {
			if j < 0 || int(j) >= b.n {
				return nil, fmt.Errorf("sparse: entry (%d,%d) out of range", i, j)
			}
			cols = append(cols, j)
		}
		sort.Slice(cols, func(a, c int) bool { return cols[a] < cols[c] })
		for _, j := range cols {
			m.ColIdx = append(m.ColIdx, j)
			m.Val = append(m.Val, b.rows[i][j])
		}
		m.RowPtr[i+1] = int32(len(m.ColIdx))
	}
	return m, nil
}
