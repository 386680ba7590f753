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
// The matrix holds each entry once, in two blocks. The live block is the
// entries of every row that some entry points to, in CSR order: the list
// PushDense walks. Past the first step a border is xᵀ·M scaled, so it is
// zero on every other row; those rows' entries follow, in row order, and
// the few such rows where x is not zero (a seeker nothing points to, at
// depth 0) are spliced into the walk at their place in row order. The
// walk does not test x: a live row where x is zero adds 0·v, a zero
// because every stored value is finite, and adding a zero leaves the bits
// of a cell that started at +0 unchanged (such a cell is never −0).
//
// Every byte-identity guarantee upstream (replayed checkpoints, shards,
// hosts, distributed workers, failover) rests on this and on nothing
// about the history of the exploration.
package sparse

import (
	"fmt"
	"math"
	"slices"
)

// Matrix is an immutable square sparse matrix; every value is finite and
// non-zero. Its entries sit in col/val once each, in two blocks: first
// the live block, the covered rows (rows some entry points to) in CSR
// order, which PushDense walks with liveRow naming each entry's row; then
// the other rows' entries, in row order. rows[r] is where row r's entries
// lie, whichever block holds them. Beside them it holds, for each
// non-empty row that is not covered, ascending, the point where that row
// splices into the live walk, and the two norms a proximity tail bound
// reads, each column's largest entry and the largest row sum. All are
// laid out when the matrix is built; none is serialised.
type Matrix struct {
	n    int
	rows []span
	col  []int32
	val  []float64

	liveRow []int32
	splice  []spliceRow

	colMax []float64
	rowMax float64
}

// span is the range [lo, hi) of col and val that holds one row.
type span struct{ lo, hi int32 }

// spliceRow is a non-empty row nothing points to, and the number of live
// entries in lower rows: where its entries fall in the walk.
type spliceRow struct{ row, at int32 }

// Builder accumulates (row, col, value) entries row by row, in ascending
// row order; duplicate coordinates are summed. The row being added is
// summed in one dense accumulator, reused for every row, and each
// finished row is appended to a CSR that Build lays out as a Matrix.
type Builder struct {
	n    int
	row  int       // the row being added
	acc  []float64 // its sums, by column
	seen []bool    // acc[c] has taken an add of this row
	cols []int32   // the columns of this row, in first-add order

	rowPtr  []int32 // the finished rows, in CSR form
	col     []int32
	val     []float64
	covered []bool // some finished entry has column r
}

// NewBuilder returns a builder for an n×n matrix.
func NewBuilder(n int) *Builder {
	return &Builder{
		n:       n,
		acc:     make([]float64, n),
		seen:    make([]bool, n),
		rowPtr:  make([]int32, n+1),
		covered: make([]bool, n),
	}
}

// Add accumulates val at (row, col). Rows come in ascending order: a row
// below one already added panics, as does a coordinate outside the
// matrix. val must be finite: PushDense's walk multiplies every value by
// zero for rows where x is zero.
func (b *Builder) Add(row, col int, val float64) {
	if row < 0 || row >= b.n || col < 0 || col >= b.n || math.IsInf(val, 0) || math.IsNaN(val) {
		panic(fmt.Sprintf("sparse: entry (%d,%d) = %v is not a finite value inside the %d×%d matrix", row, col, val, b.n, b.n))
	}
	if row < b.row {
		panic(fmt.Sprintf("sparse: entry in row %d added after row %d", row, b.row))
	}
	for b.row < row {
		b.finishRow()
	}
	if !b.seen[col] {
		b.seen[col] = true
		b.cols = append(b.cols, int32(col))
	}
	b.acc[col] += val
}

// finishRow appends the current row's non-zero sums to the CSR in column
// order, clears the accumulator and moves to the next row.
func (b *Builder) finishRow() {
	slices.Sort(b.cols)
	for _, c := range b.cols {
		if sum := b.acc[c]; sum != 0 {
			b.col = append(b.col, c)
			b.val = append(b.val, sum)
			b.covered[c] = true
		}
		b.acc[c], b.seen[c] = 0, false
	}
	b.cols = b.cols[:0]
	b.row++
	b.rowPtr[b.row] = int32(len(b.col))
}

// Build finishes the rows and lays out the matrix. Each cell is the
// left-to-right sum of what was added at it, in Add order, started from
// +0, whatever else the row holds; a cell that sums to zero is dropped,
// and no sum may overflow. The cost is O(entries + n) beside one sort of
// each row's distinct columns. Build copies the entries out of the
// builder's CSR, in one pass over the rows that also takes the column
// maxima and the largest row sum (see ColMax and RowSumMax).
func (b *Builder) Build() *Matrix {
	for b.row < b.n {
		b.finishRow()
	}
	live := 0
	for r, cov := range b.covered {
		if cov {
			live += int(b.rowPtr[r+1] - b.rowPtr[r])
		}
	}
	m := &Matrix{
		n:       b.n,
		rows:    make([]span, b.n),
		col:     make([]int32, len(b.col)),
		val:     make([]float64, len(b.val)),
		liveRow: make([]int32, 0, live),
	}
	colMax := make([]float64, b.n)
	rowMax := 0.0
	rest := int32(live)
	for r, cov := range b.covered {
		lo, hi := b.rowPtr[r], b.rowPtr[r+1]
		vals := b.val[lo:hi]
		sum := 0.0
		for i, c := range b.col[lo:hi] {
			v := vals[i]
			sum += v
			if v > colMax[c] {
				colMax[c] = v
			}
		}
		rowMax = max(rowMax, sum)
		at := int32(len(m.liveRow))
		switch {
		case lo == hi:
			continue
		case !cov:
			m.splice = append(m.splice, spliceRow{row: int32(r), at: at})
			at, rest = rest, rest+hi-lo
		default:
			for range hi - lo {
				m.liveRow = append(m.liveRow, int32(r))
			}
		}
		m.rows[r] = span{at, at + hi - lo}
		copy(m.col[at:], b.col[lo:hi])
		copy(m.val[at:], vals)
	}
	for c, v := range colMax {
		colMax[c] = roundUp(v)
	}
	m.colMax, m.rowMax = colMax, roundUp(rowMax)
	return m
}

// roundUp returns v raised by four ulps or more: the margin ColMax and
// RowSumMax keep above the values they bound, so a bound built from them
// still holds over sums that round differently from exact arithmetic.
func roundUp(v float64) float64 { return v + v*0x1p-50 }

// Raw assembles the matrix in CSR form (dimension, row pointers, column
// indices, values), a fresh copy each call: the matrix keeps no CSR
// arrays. It serves tests and the benchmark's sparse.edges_per_step probe,
// which reads row degrees from rowPtr; a search never calls it.
func (m *Matrix) Raw() (n int, rowPtr, col []int32, val []float64) {
	rowPtr = make([]int32, m.n+1)
	col = make([]int32, 0, len(m.col))
	val = make([]float64, 0, len(m.val))
	for r, s := range m.rows {
		col = append(col, m.col[s.lo:s.hi]...)
		val = append(val, m.val[s.lo:s.hi]...)
		rowPtr[r+1] = int32(len(col))
	}
	return m.n, rowPtr, col, val
}

// N returns the dimension.
func (m *Matrix) N() int { return m.n }

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int { return len(m.col) }

// Row calls f for every stored entry of the given row.
func (m *Matrix) Row(r int, f func(col int, val float64)) {
	s := m.rows[r]
	for i := s.lo; i < s.hi; i++ {
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
	var sum float64
	s := m.rows[r]
	for _, v := range m.val[s.lo:s.hi] {
		sum += v
	}
	return sum
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
		work += m.rows[r].hi - m.rows[r].lo
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
		s := m.rows[r]
		for i := s.lo; i < s.hi; i++ {
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
		lo, hi := m.rows[s.row].lo, m.rows[s.row].hi
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
	cols := m.col[lo:hi]
	vals := m.val[lo:hi]
	for i, r := range rows {
		out[cols[i]] += float64(x[r] * vals[i])
	}
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
