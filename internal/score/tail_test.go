package score

import (
	"math"
	"slices"
	"testing"

	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/sparse"
)

// ulps returns n units in the last place of x.
func ulps(x float64, n int) float64 { return float64(n) * (math.Nextafter(x, math.Inf(1)) - x) }

// exactTails walks the proximity recurrence of a hand-built matrix from
// node u, far enough that what is left is below every float the test
// compares: it returns, per depth n ≤ depth, the border's mass ‖b_n‖₁
// and the exact tail prox(u, ·) − prox≤n(u, ·), summed from the far end
// so that no tail is the difference of two nearly equal sums.
func exactTails(m *sparse.Matrix, p Params, u, depth, far int) (mass []float64, tails [][]float64) {
	n := m.N()
	cg := p.CGamma()
	border := make([]float64, n)
	border[u] = 1
	var borders [][]float64
	for d := 0; d <= far; d++ {
		borders = append(borders, border)
		next := make([]float64, n)
		var active []int32
		for v, x := range border {
			if x != 0 {
				active = append(active, int32(v))
			}
		}
		m.PropagateT(border, active, next, make([]bool, n))
		for v := range next {
			next[v] /= p.Gamma
		}
		border = next
	}
	tail := make([]float64, n)
	tails = make([][]float64, depth+1)
	for d := far; d >= 0; d-- {
		if d <= depth {
			tails[d] = append([]float64(nil), tail...)
		}
		for v, x := range borders[d] {
			tail[v] += cg * x
		}
	}
	for d := 0; d <= depth; d++ {
		s := 0.0
		for _, x := range borders[d] {
			s += x
		}
		mass = append(mass, s)
	}
	return mass, tails
}

// TestColumnTailClosedForm checks property 2's per-source form on
// hand-built matrices, at γ ∈ {1.25, 1.5, 4} and every depth to 40: the
// tail of every node is at most ColMax[v]·ColumnTail(‖b_n‖₁, RowSumMax),
// and on the two matrices where every step moves a border's whole mass
// onto each column at its largest entry the bound is attained:
//
//   - a weight-1 self-loop (c = 1, ρ = 1), whose tail at depth n is
//     γ^−(n+1) in closed form: the uniform bound is exact there;
//   - two nodes with every entry 0.6 (c = 0.6, ρ = 1.2), where the ρ
//     factor is the whole difference from the normalised case.
//
// A row-stochastic matrix with a source nothing points to (c = 0: its
// prox≤n is exact) shows the bound below the uniform one elsewhere.
func TestColumnTailClosedForm(t *testing.T) {
	build := func(n int, entries [][3]float64) *sparse.Matrix {
		b := sparse.NewBuilder(n)
		for _, e := range entries {
			b.Add(int(e[0]), int(e[1]), e[2])
		}
		return b.Build()
	}
	cases := []struct {
		name     string
		m        *sparse.Matrix
		attained bool
	}{
		{"self-loop", build(1, [][3]float64{{0, 0, 1}}), true},
		{"rho 1.2", build(2, [][3]float64{{0, 0, 0.6}, {0, 1, 0.6}, {1, 0, 0.6}, {1, 1, 0.6}}), true},
		{"stochastic", build(4, [][3]float64{{0, 1, 0.5}, {0, 2, 0.5}, {1, 2, 0.25}, {1, 3, 0.75}, {2, 1, 1}, {3, 1, 0.5}, {3, 3, 0.5}}), false},
	}
	const depth = 40
	for _, c := range cases {
		for _, gamma := range []float64{1.25, 1.5, 4} {
			p := Params{Gamma: gamma, Eta: 0.5}
			rho, colMax := c.m.RowSumMax(), c.m.ColMax()
			mass, tails := exactTails(c.m, p, 0, depth, 4000)
			for n := 0; n <= depth; n++ {
				unit := p.ColumnTail(mass[n], rho)
				for v, tail := range tails[n] {
					bound := colMax[v] * unit
					if bound < tail-ulps(tail, 4) {
						t.Fatalf("%s γ=%v n=%d v=%d: tail %v above its bound %v", c.name, gamma, n, v, tail, bound)
					}
					if c.attained && bound > tail*(1+1e-12) {
						t.Fatalf("%s γ=%v n=%d v=%d: bound %v not attained by tail %v", c.name, gamma, n, v, bound, tail)
					}
				}
				if c.name == "self-loop" {
					if want := p.TailBound(n); math.Abs(tails[n][0]-want) > ulps(want, 4) {
						t.Fatalf("self-loop γ=%v n=%d: tail %v, want γ^−(n+1) = %v", gamma, n, tails[n][0], want)
					}
				}
				if c.name == "stochastic" {
					if colMax[0] != 0 || tails[n][0] != 0 {
						t.Fatalf("stochastic n=%d: the source has column maximum %v and tail %v, want 0 and 0", n, colMax[0], tails[n][0])
					}
					if n > 0 && colMax[3]*unit >= p.TailBound(n) {
						t.Fatalf("stochastic γ=%v n=%d: per-source bound %v not below the uniform %v", gamma, n, colMax[3]*unit, p.TailBound(n))
					}
				}
			}
		}
	}
	if got := (Params{Gamma: 1.5}).ColumnTail(1, 1.5); got != math.MaxFloat64 {
		t.Fatalf("ColumnTail at ρ = γ: %v, want the largest float", got)
	}
}

// TestColumnTailIdenticalAcrossPaths: the per-source tail factor is a
// function of the depth alone, like the rest of the round-visible state —
// the same bits whichever kernel path folded the border, and whether the
// depth was propagated or replayed from a checkpoint (a replayed snapshot
// has no border to sum, so the factor comes from the mass its layer
// recorded). Checkpoints are cut at every depth of explorations that
// saturate, and resumed to past their cut.
func TestColumnTailIdenticalAcrossPaths(t *testing.T) {
	const maxDepth = 30
	snapshots := 0
	for name, in := range generatorInstances(t) {
		users := in.Users()
		for _, params := range []Params{{Gamma: 1.25, Eta: 0.8}, DefaultParams(), {Gamma: 4, Eta: 0.5}} {
			for _, u := range []graph.NID{users[0], users[len(users)/2], users[len(users)-1]} {
				sp := pinned(NewRecordingIterator(in, params, u), kernelSparse)
				de := pinned(NewIterator(in, params, u), kernelDense)
				auto := NewIterator(in, params, u)
				want := []uint64{math.Float64bits(sp.ColumnTail())}
				var cps []*ProxCheckpoint
				for d := 0; !sp.Done() && d < maxDepth; d++ {
					sp.Step()
					de.Step()
					auto.Step()
					bits := math.Float64bits(sp.ColumnTail())
					if math.Float64bits(de.ColumnTail()) != bits || math.Float64bits(auto.ColumnTail()) != bits {
						t.Fatalf("%s γ=%v u=%d depth %d: ColumnTail sparse %v, dense %v, auto %v", name, params.Gamma, u, d+1,
							sp.ColumnTail(), de.ColumnTail(), auto.ColumnTail())
					}
					want = append(want, bits)
					cps = append(cps, sp.Checkpoint())
				}
				for m, cp := range cps {
					if cp.layers[m].all != nil && m+1 < len(cps) {
						snapshots++
					}
					it, err := ResumeIterator(in, cp)
					if err != nil {
						t.Fatal(err)
					}
					for d, w := range want {
						if d > 0 {
							it.Step()
						}
						if got := math.Float64bits(it.ColumnTail()); got != w {
							t.Fatalf("%s γ=%v u=%d: checkpoint at depth %d: ColumnTail %v at depth %d, want %v", name, params.Gamma, u, m+1,
								it.ColumnTail(), d, math.Float64frombits(w))
						}
					}
				}
			}
		}
	}
	if snapshots == 0 {
		t.Fatal("no checkpoint is resumed across a snapshot-form depth")
	}
}

// TestRatioTailBoundsExactTail checks the two-step ratio form of property
// 2 on the three generators' graph shapes, at γ ∈ {1.25, 1.5, 4} and
// every depth to 40: at every node, RatioBound over the iterator's
// RatioTail and the node's prox≤n and prox≤(n−2) is at least the tail
// ExactProximity leaves above prox≤n, to within a few ulps. The bound has
// to come into use — a ratio below 1 — and to beat the column tail at
// some node, or the check would hold vacuously.
func TestRatioTailBoundsExactTail(t *testing.T) {
	const depth = 40
	used, tighter := 0, 0
	for name, in := range generatorInstances(t) {
		users := in.Users()
		colMax := in.Matrix().ColMax()
		for _, gamma := range []float64{1.25, 1.5, 4} {
			p := Params{Gamma: gamma, Eta: 0.8}
			for _, u := range []graph.NID{users[0], users[len(users)/2], users[len(users)-1]} {
				exact := ExactProximity(in, p, u, 1e-17)
				it := NewIterator(in, p, u)
				// prox≤(n−2) and prox≤(n−1); below depth 0 it is 0.
				older, old := make([]float64, in.NumNodes()), slices.Clone(it.AllProx())
				for n := 1; n <= depth && !it.Done(); n++ {
					it.Step()
					all, factor, col := it.AllProx(), it.RatioTail(), it.ColumnTail()
					if factor < math.Inf(1) {
						used++
					}
					for v, a := range all {
						bound := RatioBound(factor, a, older[v])
						if tail := exact[v] - a; bound < tail-ulps(exact[v], 4) {
							t.Fatalf("%s γ=%v u=%d n=%d v=%d: tail %v above its ratio bound %v (factor %v)", name, gamma, u, n, v, tail, bound, factor)
						}
						if bound < colMax[v]*col {
							tighter++
						}
					}
					older, old = old, slices.Clone(all)
				}
			}
		}
	}
	t.Logf("%d depths with a ratio below 1, %d node-depths where it beats the column tail", used, tighter)
	if used == 0 || tighter == 0 {
		t.Fatalf("the ratio tail is never below 1 (%d) or never tighter than the column tail (%d)", used, tighter)
	}
}

// TestSourceTailBoundDominatesExact checks SourceTailBound on the three
// generators' graph shapes, at γ ∈ {1.25, 1.5, 4} and every depth to 40:
// for every component no node of which prox≤n has reached, the bound is
// at least ExactProximity at each source of the component's events (the
// fragment itself for a Contains event). The bound has to drop to 0 —
// a finite two-step ratio — while such a component is left, or the check
// would hold vacuously.
func TestSourceTailBoundDominatesExact(t *testing.T) {
	const depth = 40
	zeroed := 0
	for name, in := range generatorInstances(t) {
		f := index.Build(in).Flat()
		sources := make([][]graph.NID, in.NumComponents())
		for _, ev := range f.Evs {
			src := ev.Src
			if ev.Type == index.Contains {
				src = ev.Frag
			}
			c := in.CompOf(ev.Frag)
			sources[c] = append(sources[c], src)
		}
		users := in.Users()
		for _, gamma := range []float64{1.25, 1.5, 4} {
			p := Params{Gamma: gamma, Eta: 0.8}
			for _, u := range []graph.NID{users[0], users[len(users)/2], users[len(users)-1]} {
				exact := ExactProximity(in, p, u, 1e-17)
				it := NewIterator(in, p, u)
				for n := 1; n <= depth && !it.Done(); n++ {
					it.Step()
					reached := make([]bool, in.NumComponents())
					for v, a := range it.AllProx() {
						if c := in.CompOf(graph.NID(v)); a != 0 && c >= 0 {
							reached[c] = true
						}
					}
					bound := it.SourceTailBound()
					for c, srcs := range sources {
						if reached[c] || len(srcs) == 0 {
							continue
						}
						for _, src := range srcs {
							if exact[src] > bound+ulps(bound, 4) {
								t.Fatalf("%s γ=%v u=%d n=%d: source %d of unreached component %d has prox %v above its bound %v", name, gamma, u, n, src, c, exact[src], bound)
							}
						}
						if bound == 0 {
							zeroed++
						}
					}
				}
			}
		}
	}
	t.Logf("%d unreached components checked against a bound of 0", zeroed)
	if zeroed == 0 {
		t.Fatal("the source bound is never 0 while a matched component is unreached")
	}
}
