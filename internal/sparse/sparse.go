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
// sparse push over the frontier list (PushSparse) and a dense flat walk
// over the matrix's live list (PushDense) — and because both perform the
// same non-zero additions in the same order their results are
// bit-identical; which one runs is decided by the step's edge work
// (Saturated) and is invisible in the result.
//
// The live list holds the entries of every row that some entry points to,
// in CSR order. Past the first step a border is xᵀ·M scaled, so it is zero
// on every other row; the few such rows where x is not zero (a seeker
// nothing points to, at depth 0) are spliced into the walk at their place
// in row order. The walk does not test x: a live row where x is zero adds
// 0·v, a zero because every stored value is finite, and adding a zero
// leaves the bits of a cell that started at +0 unchanged (such a cell is
// never −0).
//
// Every byte-identity guarantee upstream (replayed checkpoints, shards,
// hosts, distributed workers, failover) rests on this and on nothing
// about the history of the exploration.
package sparse

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Matrix is an immutable square sparse matrix in CSR layout; every value
// is finite and non-zero. Beside the CSR arrays it holds the live list
// that PushDense walks — the entries of the covered rows (rows some entry
// points to) as parallel row/col/val slices in CSR order — and, for each
// non-empty row that is not covered, ascending, the point where that row
// splices into the list; and the two norms a proximity tail bound reads,
// each column's largest entry and the largest row sum. All are derived
// from the CSR arrays when the matrix is built; none is serialised.
type Matrix struct {
	n      int
	rowPtr []int32
	col    []int32
	val    []float64

	liveRow []int32
	liveCol []int32
	liveVal []float64
	splice  []spliceRow

	colMax []float64
	rowMax float64
}

// spliceRow is a non-empty row nothing points to, and the number of live
// entries in lower rows: where its CSR entries fall in the walk.
type spliceRow struct{ row, at int32 }

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

// Add accumulates val at (row, col). val must be finite: PushDense's
// walk multiplies every value by zero for rows where x is zero.
func (b *Builder) Add(row, col int, val float64) {
	if row < 0 || row >= b.n || col < 0 || col >= b.n || math.IsInf(val, 0) || math.IsNaN(val) {
		panic(fmt.Sprintf("sparse: entry (%d,%d) = %v is not a finite value inside the %d×%d matrix", row, col, val, b.n, b.n))
	}
	b.rows[row] = append(b.rows[row], entry{col: int32(col), val: val})
	b.entries++
}

// Build produces the CSR matrix. Each row is ordered by a stable sort on
// column and every run of one column is summed in the order its entries
// were added — a matrix value is the same left-to-right sum whatever else
// the row holds. A run that sums to zero is dropped; no run may overflow.
// Rows are sorted in place; the cost is O(entries · log(widest row)).
func (b *Builder) Build() *Matrix {
	m := &Matrix{
		n:      b.n,
		rowPtr: make([]int32, b.n+1),
		col:    make([]int32, 0, b.entries),
		val:    make([]float64, 0, b.entries),
	}
	covered := make([]bool, b.n)
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
				covered[c] = true
			}
		}
		m.rowPtr[r+1] = int32(len(m.col))
	}
	m.deriveLive(covered)
	return m
}

// deriveLive lays out the live list and the splice points from the CSR
// arrays and the covered-row marks (covered[r]: some entry has column r),
// and in the same pass over the rows takes the column maxima and the
// largest row sum (see ColMax and RowSumMax).
func (m *Matrix) deriveLive(covered []bool) {
	live := 0
	for r, cov := range covered {
		if cov {
			live += int(m.rowPtr[r+1] - m.rowPtr[r])
		}
	}
	m.liveRow = make([]int32, 0, live)
	m.liveCol = make([]int32, 0, live)
	m.liveVal = make([]float64, 0, live)
	colMax := make([]float64, m.n)
	rowMax := 0.0
	for r, cov := range covered {
		lo, hi := m.rowPtr[r], m.rowPtr[r+1]
		vals := m.val[lo:hi]
		sum := 0.0
		for i, c := range m.col[lo:hi] {
			v := vals[i]
			sum += v
			if v > colMax[c] {
				colMax[c] = v
			}
		}
		rowMax = max(rowMax, sum)
		switch {
		case lo == hi:
		case !cov:
			m.splice = append(m.splice, spliceRow{row: int32(r), at: int32(len(m.liveRow))})
		default:
			for range hi - lo {
				m.liveRow = append(m.liveRow, int32(r))
			}
			m.liveCol = append(m.liveCol, m.col[lo:hi]...)
			m.liveVal = append(m.liveVal, m.val[lo:hi]...)
		}
	}
	for c, v := range colMax {
		colMax[c] = roundUp(v)
	}
	m.colMax, m.rowMax = colMax, roundUp(rowMax)
}

// roundUp returns v raised by four ulps or more: the margin ColMax and
// RowSumMax keep above the values they bound, so a bound built from them
// still holds over sums that round differently from exact arithmetic.
func roundUp(v float64) float64 { return v + v*0x1p-50 }

// Raw exposes the CSR arrays (dimension, row pointers, column indices,
// values). The slices are shared with the matrix and must not be
// modified.
func (m *Matrix) Raw() (n int, rowPtr, col []int32, val []float64) {
	return m.n, m.rowPtr, m.col, m.val
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

// ColMax returns, per column v, an upper bound on the largest entry
// max_r M[r][v]: the entry raised by a few ulps, 0 for a column with no
// entry. It bounds one step's mass at v, (xᵀ·M)[v] ≤ ColMax[v]·‖x‖₁ for
// x ≥ 0. The slice is shared with the matrix and must not be modified.
func (m *Matrix) ColMax() []float64 { return m.colMax }

// RowSumMax returns an upper bound on the largest row sum ρ (the sum
// raised by a few ulps, 0 for an empty matrix): one step scales a
// non-negative vector's mass by at most ρ, ‖xᵀ·M‖₁ ≤ ρ·‖x‖₁. Build
// records any value; an instance's matrix, whose rows are normalised
// out-weights, has ρ ≤ 1 up to rounding.
func (m *Matrix) RowSumMax() float64 { return m.rowMax }

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
// non-zero; out must be all +0 (as clear leaves it) and have length N.
// The return value lists the non-zero cells of out in ascending order (a
// cell whose contributions sum to zero is not listed and holds +0).
// scratch (a []bool of length N, all false) deduplicates on the sparse
// path and is all false again on return.
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
// only moves time, never a bit of the result. PushDense walks the whole
// live list whatever the frontier, so it costs nearly the same at any
// work; PushSparse costs ≈ 30–50 ns an edge once deduplication and the
// sort of the touched list are paid. From
//
//	go test ./internal/sparse -run '^$' -bench Push -benchtime 3000x
//
// on the random serving-size shape (N = 13,696, 5.5 edges a row, every
// row live; a 2-core Xeon VM, best of three): PushDense with its scan of
// out ≈ 115–215 µs at every work, PushSparse 22.5 µs at Σ deg = N/20,
// 83 µs at N/8.6 and 326 µs at N/3.4, so there they cross near N/5. On
// the serving graph the live list is two thirds of the matrix and has
// locality: 25-step explorations over the scale-1 twitter users, with
// each divisor in 6, 8, 16 and 24 interleaved against 12 in one process,
// differed by under 1 %. The sparse path is for the two or three narrow
// rounds that open an exploration, where it costs microseconds; every
// later round is saturated.
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
// by one flat walk over the live list, with no frontier list, no
// deduplication and no per-row loop; the caller finds the non-zero cells
// by scanning out. Each uncovered row where x is not zero is spliced in
// where it falls in row order, so every cell still takes its non-zero
// contributions in ascending source row; a live row where x is zero adds a
// zero, which changes no bit of a cell that started at +0. Bit-identical
// to PushSparse over the same x — any x, not only a border — when out
// starts all +0, as PropagateT requires.
func (m *Matrix) PushDense(x, out []float64) {
	x = x[:m.n]
	at := 0
	for _, s := range m.splice {
		xr := x[s.row]
		if xr == 0 {
			continue
		}
		m.pushLive(x, out, at, int(s.at))
		at = int(s.at)
		lo, hi := m.rowPtr[s.row], m.rowPtr[s.row+1]
		vals := m.val[lo:hi]
		for i, c := range m.col[lo:hi] {
			out[c] += float64(xr * vals[i])
		}
	}
	m.pushLive(x, out, at, len(m.liveRow))
}

// pushLive walks live entries [lo, hi).
func (m *Matrix) pushLive(x, out []float64, lo, hi int) {
	rows := m.liveRow[lo:hi]
	cols := m.liveCol[lo:hi]
	vals := m.liveVal[lo:hi]
	for i, r := range rows {
		out[cols[i]] += float64(x[r] * vals[i])
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
