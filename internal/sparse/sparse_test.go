package sparse

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// triple is one Add: row, column, value.
type triple struct {
	row, col int
	val      float64
}

// buildByRow builds an n×n matrix from entries drawn in any row order: it
// orders them stably by row, as Builder requires, so each row keeps its
// add order and every cell the same left-to-right sum.
func buildByRow(n int, ts []triple) *Matrix {
	slices.SortStableFunc(ts, func(x, y triple) int { return cmp.Compare(x.row, y.row) })
	b := NewBuilder(n)
	for _, t := range ts {
		b.Add(t.row, t.col, t.val)
	}
	return b.Build()
}

func TestBuildSumsDuplicatesAndDropsZeros(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 1, 0.5)
	b.Add(0, 1, 0.25)
	b.Add(1, 2, 1)
	b.Add(2, 0, 0.5)
	b.Add(2, 0, -0.5) // cancels to zero → dropped
	m := b.Build()
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", m.NNZ())
	}
	d := m.Dense()
	if d[0][1] != 0.75 || d[1][2] != 1 || d[2][0] != 0 {
		t.Fatalf("dense = %v", d)
	}
}

func TestAddPanicsOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range entry")
		}
	}()
	b.Add(0, 2, 1)
}

// TestAddPanicsOnLowerRow: rows are added in ascending order; an entry
// in a row below one already added panics, one in the same row does not.
func TestAddPanicsOnLowerRow(t *testing.T) {
	b := NewBuilder(4)
	b.Add(2, 1, 1)
	b.Add(2, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on an entry in a lower row")
		}
	}()
	b.Add(1, 3, 1)
}

func TestRowIterationSortedColumns(t *testing.T) {
	b := NewBuilder(4)
	b.Add(1, 3, 0.3)
	b.Add(1, 0, 0.1)
	b.Add(1, 2, 0.2)
	m := b.Build()
	var cols []int
	m.Row(1, func(c int, v float64) { cols = append(cols, c) })
	for i := 1; i < len(cols); i++ {
		if cols[i-1] >= cols[i] {
			t.Fatalf("columns not sorted: %v", cols)
		}
	}
	if got := m.RowSum(1); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("RowSum = %v, want 0.6", got)
	}
}

func TestPropagateTMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(20)
		var ts []triple
		for e := 0; e < n*2; e++ {
			ts = append(ts, triple{rng.Intn(n), rng.Intn(n), rng.Float64()})
		}
		m := buildByRow(n, ts)
		dense := m.Dense()

		x := make([]float64, n)
		var active []int32
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				x[i] = rng.Float64()
				active = append(active, int32(i))
			}
		}
		out := make([]float64, n)
		scratch := make([]bool, n)
		nz := m.PropagateT(x, active, out, scratch)

		want := make([]float64, n)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				want[c] += x[r] * dense[r][c]
			}
		}
		for c := 0; c < n; c++ {
			if math.Abs(out[c]-want[c]) > 1e-12 {
				t.Fatalf("trial %d: out[%d] = %v, want %v", trial, c, out[c], want[c])
			}
		}
		// Every reported non-zero must actually be potentially non-zero,
		// and every truly non-zero entry must be reported.
		reported := make(map[int32]bool, len(nz))
		for _, c := range nz {
			if reported[c] {
				t.Fatalf("trial %d: duplicate index %d in result", trial, c)
			}
			reported[c] = true
		}
		for c := 0; c < n; c++ {
			if want[c] != 0 && !reported[int32(c)] {
				t.Fatalf("trial %d: non-zero column %d not reported", trial, c)
			}
		}
		// Scratch must be fully reset.
		for i, s := range scratch {
			if s {
				t.Fatalf("trial %d: scratch[%d] not reset", trial, i)
			}
		}
	}
}

// TestKernelPathsBitIdentical is the canonical-order property: over
// random matrices (short rows, hub rows touching most columns, entries
// small enough that products underflow to zero) and random ascending
// frontiers from one node to every node, PushSparse and PushDense leave
// bit-equal out vectors and name the same ascending non-zero cells — and
// PropagateT, whichever it picks, agrees with both.
func TestKernelPathsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(120)
		var ts []triple
		val := func() float64 {
			if rng.Intn(8) == 0 {
				return 1e-200 * rng.Float64() // × a small x: underflows to 0
			}
			return rng.Float64()
		}
		for e := rng.Intn(4 * n); e > 0; e-- {
			ts = append(ts, triple{rng.Intn(n), rng.Intn(n), val()})
		}
		for hubs := rng.Intn(3); hubs > 0; hubs-- {
			r := rng.Intn(n)
			for c := 0; c < n; c++ {
				if rng.Intn(4) != 0 {
					ts = append(ts, triple{r, c, val()})
				}
			}
		}
		m := buildByRow(n, ts)

		// Frontier sizes sweep 1 … n; the last trials of a size class use
		// every node.
		size := 1 + rng.Intn(n)
		if trial%10 == 9 {
			size = n
		}
		x := make([]float64, n)
		var active []int32
		for _, r := range rng.Perm(n)[:size] {
			x[r] = rng.Float64()
			if rng.Intn(6) == 0 {
				x[r] *= 1e-200
			}
			if x[r] == 0 {
				x[r] = 1
			}
		}
		for r, v := range x {
			if v != 0 {
				active = append(active, int32(r))
			}
		}

		scratch := make([]bool, n)
		outS := make([]float64, n)
		nextS := m.PushSparse(x, active, outS, scratch, nil)
		outD := make([]float64, n)
		m.PushDense(x, outD)
		var nextD []int32
		for c, v := range outD {
			if v != 0 {
				nextD = append(nextD, int32(c))
			}
		}
		outP := make([]float64, n)
		nextP := m.PropagateT(x, active, outP, scratch)

		for c := 0; c < n; c++ {
			if math.Float64bits(outS[c]) != math.Float64bits(outD[c]) || math.Float64bits(outP[c]) != math.Float64bits(outD[c]) {
				t.Fatalf("trial %d (n=%d, |active|=%d): out[%d] sparse %x dense %x entry %x", trial, n, len(active), c,
					math.Float64bits(outS[c]), math.Float64bits(outD[c]), math.Float64bits(outP[c]))
			}
		}
		if !slices.Equal(nextS, nextD) || !slices.Equal(nextP, nextD) {
			t.Fatalf("trial %d: next lists differ: sparse %v dense %v entry %v", trial, nextS, nextD, nextP)
		}
		if !slices.IsSorted(nextD) {
			t.Fatalf("trial %d: next not ascending: %v", trial, nextD)
		}
		for i, s := range scratch {
			if s {
				t.Fatalf("trial %d: scratch[%d] not reset", trial, i)
			}
		}
	}
}

func TestZeroVec(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	ZeroVec(x, []int32{0, 2})
	if x[0] != 0 || x[1] != 2 || x[2] != 0 || x[3] != 4 {
		t.Fatalf("ZeroVec result = %v", x)
	}
}

// benchFrontier builds the serving-scale shape (the benchmark's twitter
// scale-1 graph: 13,696 nodes, ≈ 5.5 edges a row) and an ascending
// frontier over the given fraction of its rows.
func benchFrontier(frac float64) (m *Matrix, x []float64, active []int32) {
	rng := rand.New(rand.NewSource(1))
	const n = 13696
	ts := make([]triple, n*11/2)
	for e := range ts {
		ts[e] = triple{rng.Intn(n), rng.Intn(n), rng.Float64()}
	}
	m = buildByRow(n, ts)
	x = make([]float64, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < frac {
			x[i] = rng.Float64()
			active = append(active, int32(i))
		}
	}
	return m, x, active
}

// BenchmarkPropagateT times the kernel entry point where each of its two
// paths is meant to run: sparse frontiers of 1 % and 10 % of the rows, a
// saturated one of 75 % (what every round after the first few looks like
// at serving scale).
func BenchmarkPropagateT(b *testing.B) {
	for _, bc := range []struct {
		name string
		frac float64
	}{{"sparse/1pct", 0.01}, {"sparse/10pct", 0.10}, {"saturated/75pct", 0.75}} {
		b.Run(bc.name, func(b *testing.B) {
			m, x, active := benchFrontier(bc.frac)
			out := make([]float64, m.N())
			scratch := make([]bool, m.N())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nz := m.PropagateT(x, active, out, scratch)
				ZeroVec(out, nz)
			}
		})
	}
}

// BenchmarkPush times both kernel paths over the same frontiers, each
// with what its caller pays to enumerate and clear the result — the
// measurement denseWorkDiv is chosen from.
func BenchmarkPush(b *testing.B) {
	for _, frac := range []float64{0.002, 0.005, 0.01, 0.02, 0.05, 0.10, 0.75} {
		m, x, active := benchFrontier(frac)
		work := 0
		for _, r := range active {
			work += int(m.rows[r].hi - m.rows[r].lo)
		}
		name := fmt.Sprintf("work=N_%.1f", float64(m.N())/float64(work))
		out := make([]float64, m.N())
		scratch := make([]bool, m.N())
		buf := make([]int32, 0, m.N())
		b.Run(name+"/sparse", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buf = m.PushSparse(x, active, out, scratch, buf)
				ZeroVec(out, buf)
			}
		})
		b.Run(name+"/dense", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.PushDense(x, out)
				buf = buf[:0]
				for c, v := range out {
					if v != 0 {
						buf = append(buf, int32(c))
					}
				}
				clear(out)
			}
		})
	}
}

// TestBuildHubRow: a row far wider than its neighbours, filled in
// descending column order, must still come out with strictly ascending,
// duplicate-summed columns (every row goes through the same accumulator;
// there is no length threshold).
func TestBuildHubRow(t *testing.T) {
	const n = 128
	b := NewBuilder(n)
	// A hub row touching every column in reverse order, with duplicates
	// to exercise the accumulator.
	for c := n - 1; c >= 0; c-- {
		b.Add(0, c, float64(c))
		if c%3 == 0 {
			b.Add(0, c, 1)
		}
	}
	b.Add(1, 5, 2) // a short row after the hub
	m := b.Build()
	var prev int = -1
	got := 0
	m.Row(0, func(col int, val float64) {
		if col <= prev {
			t.Fatalf("hub row columns out of order: %d after %d", col, prev)
		}
		want := float64(col)
		if col%3 == 0 {
			want++
		}
		if val != want {
			t.Fatalf("hub row value at %d = %v, want %v", col, val, want)
		}
		prev = col
		got++
	})
	if got != n {
		t.Fatalf("hub row has %d entries, want %d", got, n)
	}
}

// TestBuildMergesInInsertionOrder checks Build against the definition: a
// cell is the left-to-right sum, in Add order, of what was added at its
// coordinate. Same rowPtr / col, values equal bit for bit — a merge that
// summed a run in any other order would differ in the last place.
func TestBuildMergesInInsertionOrder(t *testing.T) {
	type cell struct{ row, col int32 }
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(60)
		hub := -1
		if trial%8 == 0 {
			n, hub = 10_000, 3+rng.Intn(5)
		}
		b := NewBuilder(n)
		sums := make(map[cell]float64)
		add := func(r, c int, v float64) {
			b.Add(r, c, v)
			sums[cell{int32(r), int32(c)}] += v
		}
		for r := 0; r < min(n, 60); r++ {
			switch {
			case r == hub:
				for c := n - 1; c >= 0; c-- {
					add(r, c, rng.Float64())
				}
				for i := 0; i < 400; i++ { // runs of several duplicates inside the hub
					add(r, rng.Intn(40), rng.NormFloat64())
				}
			case r%7 == 6: // empty row
			default:
				for i, k := 0, 1+rng.Intn(12); i < k; i++ {
					c, v := rng.Intn(n), rng.NormFloat64()
					add(r, c, v)
					switch rng.Intn(4) {
					case 0: // cancels to exactly zero → dropped
						add(r, c, -sums[cell{int32(r), int32(c)}])
					case 1: // rounding-sensitive duplicates
						add(r, c, 1e-17*rng.Float64())
						add(r, c, 1/3.0)
					}
				}
			}
		}

		keys := make([]cell, 0, len(sums))
		for k, v := range sums {
			if v != 0 {
				keys = append(keys, k)
			}
		}
		slices.SortFunc(keys, func(x, y cell) int {
			return cmp.Or(cmp.Compare(x.row, y.row), cmp.Compare(x.col, y.col))
		})
		wantPtr := make([]int32, n+1)
		wantCol := make([]int32, len(keys))
		wantVal := make([]float64, len(keys))
		for i, k := range keys {
			wantPtr[k.row+1]++
			wantCol[i], wantVal[i] = k.col, sums[k]
		}
		for r := 0; r < n; r++ {
			wantPtr[r+1] += wantPtr[r]
		}

		_, rowPtr, col, val := b.Build().Raw()
		if !slices.Equal(rowPtr, wantPtr) || !slices.Equal(col, wantCol) {
			t.Fatalf("trial %d (n=%d): structure differs from the per-cell reference", trial, n)
		}
		for i := range val {
			if math.Float64bits(val[i]) != math.Float64bits(wantVal[i]) {
				t.Fatalf("trial %d: value %d (col %d) = %x, reference %x", trial, i, col[i], math.Float64bits(val[i]), math.Float64bits(wantVal[i]))
			}
		}
	}
}

// TestPushDenseSplicesUncoveredRows: rows 1 and 4 hold entries but
// nothing points to them, so PushDense must splice them into its walk
// over the live list (rows 0, 3 and 5; row 2 is covered and empty) at
// their place in row order. Each of columns 0 and 5 takes two 2⁻⁵³ terms
// and a 1 whose sum depends on the order: 1+2⁻⁵² in ascending row order,
// 1 if a spliced row's term were added first or last. Every pattern of
// zeros on the uncovered rows must leave out bit-equal to PushSparse.
func TestPushDenseSplicesUncoveredRows(t *testing.T) {
	tiny := math.Ldexp(1, -53)
	b := NewBuilder(6)
	b.Add(0, 0, tiny)
	b.Add(0, 5, tiny)
	b.Add(1, 5, tiny)
	b.Add(3, 0, tiny)
	b.Add(3, 5, 1)
	b.Add(4, 0, 1)
	b.Add(5, 2, 0.5)
	b.Add(5, 3, 0.5)
	m := b.Build()
	if want := []spliceRow{{row: 1, at: 2}, {row: 4, at: 4}}; !slices.Equal(m.splice, want) {
		t.Fatalf("splice points %v, want %v", m.splice, want)
	}
	if want := []int32{0, 0, 3, 3, 5, 5}; !slices.Equal(m.liveRow, want) {
		t.Fatalf("live rows %v, want %v", m.liveRow, want)
	}
	for _, spliced := range [][2]float64{{1, 1}, {0, 1}, {1, 0}, {0, 0}} {
		x := []float64{1, spliced[0], 1, 1, spliced[1], 1}
		var active []int32
		for r, v := range x {
			if v != 0 {
				active = append(active, int32(r))
			}
		}
		outS := make([]float64, m.N())
		m.PushSparse(x, active, outS, make([]bool, m.N()), nil)
		outD := make([]float64, m.N())
		m.PushDense(x, outD)
		for c := range outD {
			if math.Float64bits(outD[c]) != math.Float64bits(outS[c]) {
				t.Fatalf("x=%v: out[%d] dense %x sparse %x", x, c, math.Float64bits(outD[c]), math.Float64bits(outS[c]))
			}
		}
		if spliced == [2]float64{1, 1} && (outD[0] != 1+2*tiny || outD[5] != 1+2*tiny) {
			t.Fatalf("out[0] = %x, out[5] = %x: not summed in ascending row order", math.Float64bits(outD[0]), math.Float64bits(outD[5]))
		}
	}
}

func TestAddPanicsOnNonFiniteValue(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic on value %v", v)
				}
			}()
			NewBuilder(2).Add(0, 1, v)
		}()
	}
}

// TestColMaxAndRowSumMax: the two norms a proximity tail bound reads are
// each column's largest entry and the largest row sum, raised by a few
// ulps and never below the value; a column with no entry bounds at 0.
func TestColMaxAndRowSumMax(t *testing.T) {
	b := NewBuilder(4)
	b.Add(0, 1, 0.5)
	b.Add(0, 2, 0.5)
	b.Add(1, 2, 0.25)
	b.Add(1, 3, 0.75)
	b.Add(3, 3, 0.125)
	built := b.Build()
	wantCol := []float64{0, 0.5, 0.5, 0.75}
	for v, c := range built.ColMax() {
		if w := wantCol[v]; c < w || c > w*(1+1e-15) {
			t.Errorf("ColMax[%d] = %v, want %v raised by a few ulps", v, c, w)
		}
	}
	if rho := built.RowSumMax(); rho < 1 || rho > 1+1e-15 {
		t.Errorf("RowSumMax = %v, want 1 raised by a few ulps", rho)
	}
	if rho := NewBuilder(3).Build().RowSumMax(); rho != 0 {
		t.Errorf("empty matrix: RowSumMax = %v, want 0", rho)
	}
}
