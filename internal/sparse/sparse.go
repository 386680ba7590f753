// Package sparse provides the compressed-sparse-row matrix and the
// vector-propagation kernel used to explore the social graph. The paper's
// implementation section (§5.2) replaces the borderPath table by the vector
//
//	borderProx(v, n) = Σ_{p ∈ u⇝v, |p|=n} prox→(p) / γⁿ
//
// computed by repeated multiplication of a "distance" matrix with the
// previous border vector; this package supplies exactly that primitive.
//
// The primitive has one canonical floating-point order: every output cell
// sums its contributions in ascending source-row order, and the non-zero
// cells are enumerated in ascending index. It is implemented twice — a
// sparse push over the frontier list (PushSparse) and a dense row-major
// sweep (PushDense) — and because both perform the same additions in the
// same order their results are bit-identical; which one runs is decided
// by the step's edge work (Saturated) and is invisible in the result.
// Every byte-identity guarantee upstream (replayed checkpoints, shards,
// hosts, distributed workers, failover) rests on this and on nothing
// about the history of the exploration.
package sparse

import (
	"cmp"
	"fmt"
	"slices"
)

// Matrix is an immutable square sparse matrix in CSR layout.
type Matrix struct {
	n      int
	rowPtr []int32
	col    []int32
	val    []float64
}

// Builder accumulates (row, col, value) entries; duplicate coordinates are
// summed.
type Builder struct {
	n       int
	rows    [][]entry
	entries int
}

type entry struct {
	col int32
	val float64
}

// NewBuilder returns a builder for an n×n matrix.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, rows: make([][]entry, n)}
}

// Add accumulates val at (row, col).
func (b *Builder) Add(row, col int, val float64) {
	if row < 0 || row >= b.n || col < 0 || col >= b.n {
		panic(fmt.Sprintf("sparse: entry (%d,%d) outside %d×%d matrix", row, col, b.n, b.n))
	}
	b.rows[row] = append(b.rows[row], entry{col: int32(col), val: val})
	b.entries++
}

// Build produces the CSR matrix. Each row is ordered by a stable sort on
// column and every run of one column is summed in the order its entries
// were added — a matrix value is the same left-to-right sum whatever else
// the row holds. A run that sums to zero is dropped. Rows are sorted in
// place; the cost is O(entries · log(widest row)).
func (b *Builder) Build() *Matrix {
	m := &Matrix{
		n:      b.n,
		rowPtr: make([]int32, b.n+1),
		col:    make([]int32, 0, b.entries),
		val:    make([]float64, 0, b.entries),
	}
	for r, row := range b.rows {
		slices.SortStableFunc(row, func(x, y entry) int { return cmp.Compare(x.col, y.col) })
		for i := 0; i < len(row); {
			c, sum := row[i].col, 0.0
			for ; i < len(row) && row[i].col == c; i++ {
				sum += row[i].val
			}
			if sum != 0 {
				m.col = append(m.col, c)
				m.val = append(m.val, sum)
			}
		}
		m.rowPtr[r+1] = int32(len(m.col))
	}
	return m
}

// Raw exposes the CSR arrays (dimension, row pointers, column indices,
// values) for serialisation. The slices are shared with the matrix and
// must not be modified.
func (m *Matrix) Raw() (n int, rowPtr, col []int32, val []float64) {
	return m.n, m.rowPtr, m.col, m.val
}

// FromRaw reconstructs a matrix from CSR arrays as returned by Raw. The
// slices are retained. It validates the CSR invariants so a corrupt
// serialisation cannot produce out-of-bounds panics later.
func FromRaw(n int, rowPtr, col []int32, val []float64) (*Matrix, error) {
	if n < 0 || len(rowPtr) != n+1 {
		return nil, fmt.Errorf("sparse: rowPtr length %d for dimension %d", len(rowPtr), n)
	}
	if len(col) != len(val) {
		return nil, fmt.Errorf("sparse: %d columns but %d values", len(col), len(val))
	}
	if rowPtr[0] != 0 || int(rowPtr[n]) != len(col) {
		return nil, fmt.Errorf("sparse: rowPtr endpoints [%d, %d] for %d entries", rowPtr[0], rowPtr[n], len(col))
	}
	for r := 0; r < n; r++ {
		if rowPtr[r] > rowPtr[r+1] {
			return nil, fmt.Errorf("sparse: decreasing rowPtr at row %d", r)
		}
	}
	for _, c := range col {
		if c < 0 || int(c) >= n {
			return nil, fmt.Errorf("sparse: column %d outside %d×%d matrix", c, n, n)
		}
	}
	return &Matrix{n: n, rowPtr: rowPtr, col: col, val: val}, nil
}

// N returns the dimension.
func (m *Matrix) N() int { return m.n }

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int { return len(m.col) }

// Row calls f for every stored entry of the given row.
func (m *Matrix) Row(r int, f func(col int, val float64)) {
	for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
		f(int(m.col[i]), m.val[i])
	}
}

// RowSum returns the sum of the entries of a row.
func (m *Matrix) RowSum(r int) float64 {
	var s float64
	for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
		s += m.val[i]
	}
	return s
}

// PropagateT computes out = xᵀ·M: out[c] = Σ_r x[r]·M[r][c].
//
// active must list, in ascending order, exactly the indices where x is
// non-zero; out must be all zero and have length N. The return value
// lists the non-zero cells of out in ascending order (a cell whose
// contributions sum to zero is not listed and holds +0). scratch (a
// []bool of length N, all false) deduplicates on the sparse path and is
// all false again on return.
//
// Every cell sums its contributions in ascending source-row order,
// whichever of the two kernel paths runs, so the result depends on x and
// M alone — bit for bit.
func (m *Matrix) PropagateT(x []float64, active []int32, out []float64, scratch []bool) []int32 {
	if !m.Saturated(active) {
		return m.PushSparse(x, active, out, scratch, nil)
	}
	m.PushDense(x, out)
	next := make([]int32, 0, m.n)
	for c, v := range out {
		if v != 0 {
			next = append(next, int32(c))
		}
	}
	return next
}

// denseWorkDiv places the switch between the two kernel paths: a step
// whose edge work Σ deg(active) reaches N/denseWorkDiv takes PushDense.
// Both paths perform the same additions in the same order, so the value
// only moves time, never a bit of the result. Chosen from
//
//	go test ./internal/sparse -run '^$' -bench Push -benchtime 3000x
//
// on the serving-scale shape (N = 13,696, 5.5 edges a row): PushDense
// with its scan of out costs a flat ≈ 28 µs plus ≈ 2.7 ns an edge,
// PushSparse ≈ 24 ns an edge once deduplication and the sort of the
// touched list are paid (16.6 µs against 29.1 µs at Σ deg = N/20, 53.3 µs
// against 32.4 µs at N/8.6), so they cross near N/11. The sparse path is
// for the two or three narrow rounds that open an exploration, where it
// costs microseconds; every later round is saturated.
const denseWorkDiv = 12

// Saturated reports whether a step from the given frontier has enough
// edge work that PushDense beats PushSparse.
func (m *Matrix) Saturated(active []int32) bool {
	limit := int32(m.n / denseWorkDiv)
	var work int32
	for _, r := range active {
		work += m.rowPtr[r+1] - m.rowPtr[r]
		if work >= limit {
			return true
		}
	}
	return false
}

// PushSparse is the small-frontier kernel path: it adds xᵀ·M into out by
// walking the rows listed in active (ascending, as for PropagateT) and
// returns the cells of out that became non-zero, ascending, appended to
// buf[:0]. scratch is as for PropagateT.
func (m *Matrix) PushSparse(x []float64, active []int32, out []float64, scratch []bool, buf []int32) []int32 {
	touched := buf[:0]
	for _, r := range active {
		xr := x[r]
		if xr == 0 {
			continue
		}
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			c := m.col[i]
			// The conversion rounds the product before the add, so no
			// architecture fuses the two differently here and in PushDense.
			out[c] += float64(xr * m.val[i])
			if !scratch[c] {
				scratch[c] = true
				touched = append(touched, c)
			}
		}
	}
	slices.Sort(touched)
	next := touched[:0]
	for _, c := range touched {
		scratch[c] = false
		if out[c] != 0 {
			next = append(next, c)
		}
	}
	return next
}

// PushDense is the saturated-frontier kernel path: it adds xᵀ·M into out
// by walking every row 0…N-1 and skipping those where x is zero — no
// frontier list, no deduplication. The caller finds the non-zero cells by
// scanning out. Bit-identical to PushSparse over the same x.
func (m *Matrix) PushDense(x, out []float64) {
	rowPtr := m.rowPtr[:m.n+1]
	lo := rowPtr[0]
	for r, xr := range x[:m.n] {
		hi := rowPtr[r+1]
		if xr != 0 {
			cols := m.col[lo:hi]
			vals := m.val[lo:hi]
			for i, c := range cols {
				out[c] += float64(xr * vals[i])
			}
		}
		lo = hi
	}
}

// MulVec computes out = M·x densely (used by tests as an oracle).
func (m *Matrix) MulVec(x []float64) []float64 {
	out := make([]float64, m.n)
	for r := 0; r < m.n; r++ {
		var s float64
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			s += m.val[i] * x[m.col[i]]
		}
		out[r] = s
	}
	return out
}

// Dense materialises the matrix (tests only; O(n²) memory).
func (m *Matrix) Dense() [][]float64 {
	d := make([][]float64, m.n)
	for r := range d {
		d[r] = make([]float64, m.n)
		m.Row(r, func(c int, v float64) { d[r][c] = v })
	}
	return d
}

// ZeroVec zeroes exactly the listed indices of x (cheaper than clearing
// the whole vector between sparse iterations).
func ZeroVec(x []float64, idx []int32) {
	for _, i := range idx {
		x[i] = 0
	}
}
