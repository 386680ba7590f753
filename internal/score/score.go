// Package score implements the scoring model of the paper: the generic
// score abstraction of §3.3 with its four feasibility properties, and the
// concrete S3k score of §3.4 (Definition 3.5):
//
//	score(d, (u,φ)) = Π_{k∈φ} Σ_{(type,f,src) ∈ con(d,k)} η^|pos(d,f)| · prox(u,src)
//
// with the Katz-style all-paths social proximity
//
//	prox(a,b) = Cγ · Σ_{p ∈ a⇝b} prox→(p) / γ^|p| ,  Cγ = (γ−1)/γ ,
//
// where prox→(p) is the product of the normalised edge weights along p.
//
// The feasibility properties materialise as:
//
//   - iterability (property 1): prox≤n = prox≤n−1 + Cγ·borderProx(·,n),
//     implemented by Iterator.Step;
//   - long-path attenuation (property 2): prox − prox≤n tends to 0, and
//     is bounded per source twice over — by what the border at depth n
//     still carries (Params.ColumnTail states the bound and the row-sum
//     assumption it rests on), and by the source's own gain over the last
//     two depths times the border's two-step decay ratio (RatioTail) —
//     and uniformly by B>n = γ^−(n+1) (Params.TailBound);
//   - soundness (property 3): the score is monotone and continuous in the
//     proximity values (it is a polynomial with non-negative
//     coefficients);
//   - convergence (property 4): Bscore — with every source proximity
//     below B, score(d) ≤ Π_k maxMass(k)·B → 0; the engine's stop test
//     evaluates it.
//
// One float semantics on every host: the Go spec lets a compiler fuse
// x*y + z into a single rounding, and gc does so on arm64, ppc64le,
// riscv64 and s390x, never on amd64. So every product that feeds a sum in
// this module is written float64(x*y): the explicit conversion rounds the
// product first, and every host computes the same bits — the same
// generated data, proximity sums, bounds and answers. make fma-lint
// cross-compiles the module for those architectures and fails on any
// fused instruction.
package score

import (
	"fmt"
	"math"

	"s3/internal/dict"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/sparse"
)

// Params collects the two damping factors of the concrete score.
type Params struct {
	// Gamma (γ > 1) damps long social paths (§3.4). Smaller values focus
	// the search near the seeker; the paper evaluates 1.25, 1.5, 2 and 4.
	Gamma float64
	// Eta (η < 1) damps fragments that sit deep inside a candidate
	// document: a connection due to fragment f counts η^|pos(d,f)|.
	Eta float64
}

// DefaultParams returns the defaults used throughout the benchmarks:
// γ = 1.5 (the paper's middle setting) and η = 0.8.
func DefaultParams() Params { return Params{Gamma: 1.5, Eta: 0.8} }

// Validate checks the damping constraints of §3.4.
func (p Params) Validate() error {
	if !(p.Gamma > 1) {
		return fmt.Errorf("score: gamma must be > 1, got %v", p.Gamma)
	}
	if !(p.Eta > 0 && p.Eta < 1) {
		return fmt.Errorf("score: eta must be in (0,1), got %v", p.Eta)
	}
	return nil
}

// CGamma returns Cγ = (γ−1)/γ, the constant that normalises prox into
// [0, 1].
func (p Params) CGamma() float64 { return (p.Gamma - 1) / p.Gamma }

// TailBound returns B>n = γ^−(n+1), the uniform form of feasibility
// property 2: ColumnTail's bound for a source whose column maximum is 1,
// with ρ = 1 and the border's mass at its largest, γ^−n. It tends to 0 as
// n grows. It drives the precision floor and the depth of ExactProximity
// and of proximity warming; candidate bounds use the per-source form.
func (p Params) TailBound(n int) float64 { return math.Pow(p.Gamma, -float64(n+1)) }

// ColumnTail is feasibility property 2 in its per-source form. Let b ≥ 0
// be the border at depth n with mass ‖b‖₁, c_v the largest entry of
// column v of the matrix M and ρ its largest row sum. For x ≥ 0,
// (xᵀM)_v ≤ c_v·‖x‖₁ and ‖xᵀM‖₁ ≤ ρ·‖x‖₁, so
//
//	prox(v) − prox≤n(v) = Cγ Σ_{j≥1} (bᵀMʲ)_v / γʲ ≤ c_v · ‖b‖₁ · (γ−1) / (γ(γ−ρ))
//
// and ColumnTail returns the factor after c_v. The bound needs ρ < γ. A
// normalised matrix has ρ ≤ 1 — each row spreads one node's out-weight,
// so the border's mass is at most γ^−n as well — and an instance's matrix
// is always that one: every open derives it from the edges as a build
// does (graph.Instance.Matrix), never reads it from a file; ρ enters as
// measured (sparse.Matrix.RowSumMax), a few ulps over 1. With ρ = 1 the factor is
// mass/γ. A node nothing points to has c_v = 0: its prox≤n is already
// exact. At ρ ≥ γ no finite factor holds; ColumnTail returns the largest
// float, so every upper bound built from it saturates.
func (p Params) ColumnTail(mass, rho float64) float64 {
	if !(rho < p.Gamma) {
		return math.MaxFloat64
	}
	return mass * (p.Gamma - 1) / (p.Gamma * (p.Gamma - rho))
}

// RatioBound is the two-step ratio tail of one source: factor (RatioTail
// at depth n) times the source's gain over the last two depths, its
// prox≤n p less its prox≤(n−2) p2, raised by p·2^−50. The raise covers
// how far the difference of the two rounded sums can fall short of
// Cγ(b_n + b_{n−1}): two rounded adds into prox≤, the two rounded
// products Cγ·b and the subtraction, each within 2^−53 of p. A factor of
// +∞ (no ratio below 1 yet) or a NaN history gives +∞ or NaN, which no
// comparison prefers to a finite bound.
func RatioBound(factor, p, p2 float64) float64 {
	return factor * (p - p2 + float64(p*0x1p-50))
}

// Iterator computes the bounded social proximity prox≤n(u, ·) for growing
// n, one matrix step at a time — the §5.2 borderProx optimisation. It owns
// dense work vectors sized to the instance and must not be shared across
// goroutines.
//
// The exploration has one canonical floating-point order: every border
// cell sums its contributions in ascending source-node order (the sparse
// kernel's contract), and a step's border, discovery list and recorded
// layer are in ascending node id. The state at depth n is therefore a
// function of (matrix, seeker, params, n) alone — not of the order earlier
// frontiers were reached in, nor of which kernel path computed a step,
// nor of whether a step was propagated or replayed from a checkpoint.
type Iterator struct {
	in     *graph.Instance
	params Params
	seeker graph.NID

	// border[v] = Σ_{p ∈ u⇝v, |p|=n} prox→(p) / γⁿ  (borderProx of §5.2),
	// non-zero exactly on active (ascending); prev and prevActive are the
	// border at depth n−1, which the next step's ratio reads. next is the
	// all-zero vector the following step accumulates into; spare is the
	// buffer its border list is built in. While stale (see below) border
	// and active still describe depth 0, and prev is empty.
	border     []float64
	active     []int32
	prev       []float64
	prevActive []int32
	next       []float64
	spare      []int32
	scratch    []bool

	// all[v] = prox≤n(u, v): the iterator's own vector, or — after a
	// replayed saturated depth — a checkpoint's immutable snapshot, which
	// is only ever read. Every write goes through ownAll.
	all  []float64
	own  []float64
	n    int
	done bool // the border at depth n is empty
	// mass is the border's ‖b‖₁ at depth n (see borderMass), capped at
	// (ρ/γ)^n; ratio is its two-step ratio r_n (see RatioTail), taken in
	// ascending cell order (ratioCell). A replayed depth takes the values
	// its layer recorded.
	mass  float64
	ratio float64

	// disc is the scratch buffer behind Step's return value (borrow
	// semantics, like AllProx).
	disc []graph.NID

	// kernel pins one sparse kernel path past depth 0 (tests); the zero
	// value lets the matrix choose by the step's edge work. The step from
	// depth 0 is always sparse: that border is the seeker alone, whose row
	// may lie outside the live block PushDense walks.
	kernel kernelPath

	// Checkpoint support. When rec is true every step records the depth it
	// produced into layers; layers[d-1] is depth d. A resumed iterator
	// starts with the layers of its checkpoint already filled in and
	// replays them — adopting a saturated depth's snapshot, folding a
	// narrow depth's border — before falling back to real propagation past
	// the recorded depth. While recording, n ≤ len(layers); n <
	// len(layers) only while a resumed or rewound iterator still has
	// recorded depths ahead of it.
	//
	// A replayed step maintains all, n and done but not the borders: stale
	// marks border/active and prev/prevActive as not yet describing depths
	// n and n−1. The hand-off — the first real Step, or a Border/BorderProx
	// call, at the inherited depth — scatters last and prevLast, the
	// checkpoint's saved borders of those depths; on a rewound iterator
	// (see Rewind) the live borders already describe them, and it scatters
	// nothing.
	rec      bool
	layers   []proxLayer
	last     proxLayer
	prevLast proxLayer
	stale    bool
	rewound  bool
}

type kernelPath uint8

const (
	kernelAuto kernelPath = iota
	kernelSparse
	kernelDense
)

// proxLayer is one recorded exploration depth d, in the smaller of two
// forms. A narrow depth is its border: the nodes reached by paths of
// length exactly d, in ascending id, with their borderProx values (all is
// nil). A saturated depth — one whose border would take at least the
// bytes of a dense vector, 12·|border| ≥ 8·N — is the prox≤d vector
// itself plus the nodes first reached at d, ascending (nodes and vals are
// nil). Either form records the border's mass and two-step ratio at d,
// which a replayed snapshot has no border to take them from, and a
// replayed narrow depth no border two depths back. Layers are immutable
// once recorded and
// are shared between checkpoints and, read-only, with the iterators
// resumed from them.
type proxLayer struct {
	nodes []int32
	vals  []float64

	all  []float64
	disc []graph.NID

	mass, ratio float64
}

// saturatedLayer reports whether a border of b cells over n nodes is
// recorded as a snapshot: the form is chosen by bytes, so it is a property
// of the exploration, not a setting.
func saturatedLayer(b, n int) bool { return 12*b >= 8*n }

// NewIterator starts an exploration at the seeker. The initial state is
// n = 0: only the empty path is known, so prox≤0(u,u) = Cγ and the border
// is {u}.
func NewIterator(in *graph.Instance, params Params, seeker graph.NID) *Iterator {
	it := new(Iterator)
	it.Reset(in, params, seeker, false)
	return it
}

// NewRecordingIterator is NewIterator with checkpoint recording enabled:
// every Step records the depth it reached so the exploration can later be
// published as a ProxCheckpoint and resumed by another search.
func NewRecordingIterator(in *graph.Instance, params Params, seeker graph.NID) *Iterator {
	it := new(Iterator)
	it.Reset(in, params, seeker, true)
	return it
}

// Reset restarts the iterator as a fresh exploration from the seeker,
// recording or not, reusing its work vectors when they are sized for the
// instance (they are cleared in full, whatever state the previous
// exploration left them in) and replacing them when they are not — so a
// pooled iterator can serve any instance, and no vector ever serves two
// dimensions. Everything a previous exploration handed out (AllProx,
// Border, BorderProx, a discovered list) is invalid afterwards; a
// published checkpoint is not — the iterator keeps no reference into one,
// and never wrote a vector it borrowed from one.
func (it *Iterator) Reset(in *graph.Instance, params Params, seeker graph.NID, record bool) {
	nn := in.NumNodes()
	if len(it.own) != nn {
		*it = Iterator{
			border:  make([]float64, nn),
			prev:    make([]float64, nn),
			next:    make([]float64, nn),
			scratch: make([]bool, nn),
			own:     make([]float64, nn),
		}
	} else {
		clear(it.border)
		clear(it.prev)
		clear(it.next)
		clear(it.scratch)
		clear(it.own)
	}
	it.in, it.params, it.seeker = in, params, seeker
	// Depth 0 has no border two depths back: its ratio is +∞.
	it.n, it.done, it.mass, it.ratio = 0, false, 1, math.Inf(1)
	it.rec, it.layers, it.last, it.prevLast, it.stale, it.rewound = record, nil, proxLayer{}, proxLayer{}, false, false
	it.border[seeker] = 1
	it.active = append(it.active[:0], int32(seeker))
	it.prevActive = it.prevActive[:0]
	it.all = it.own
	it.all[seeker] = params.CGamma()
}

// Release drops every reference the iterator holds into checkpoint
// memory — the inherited layers, the saved hand-off borders, a borrowed
// prox≤n snapshot — so an iterator parked in a pool pins no cache entry
// and can hand no later user a vector the cache owns. Only Reset and
// Resume are meaningful afterwards.
func (it *Iterator) Release() {
	it.layers, it.last, it.prevLast, it.rec = nil, proxLayer{}, proxLayer{}, false
	it.all = it.own
}

// Seeker returns the node the exploration started from.
func (it *Iterator) Seeker() graph.NID { return it.seeker }

// Params returns the damping factors the exploration uses.
func (it *Iterator) Params() Params { return it.params }

// N returns the current exploration depth n.
func (it *Iterator) N() int { return it.n }

// AllProx returns the prox≤n vector. The slice is read-only to the caller
// (it may be a checkpoint's snapshot, shared with other searches) and only
// valid until the next Step.
func (it *Iterator) AllProx() []float64 { return it.all }

// Border returns the indices of the current exploration border (nodes
// reached by at least one path of length exactly n). Border and BorderProx
// are defined wherever the next Step would propagate: at every depth of an
// iterator that was not resumed, and on a resumed one at depth 0 and from
// the checkpoint's depth onward. Strictly inside the checkpoint's depths
// the border is not kept — a saturated depth stores prox≤n instead — and
// both panic.
func (it *Iterator) Border() []int32 {
	it.handOff()
	return it.active
}

// BorderProx returns the dense borderProx vector, non-zero exactly on
// Border() and defined where Border is. The slice is owned by the
// iterator and changes on every Step.
func (it *Iterator) BorderProx() []float64 {
	it.handOff()
	return it.border
}

// RecordedDepth returns the depth a recording iterator has layers for:
// max(N(), inherited checkpoint depth). Callers use it to publish only
// explorations that actually deepened what the cache already held.
func (it *Iterator) RecordedDepth() int { return len(it.layers) }

// Done reports whether the border is empty — the entire reachable graph
// has been accounted for and prox≤n is exact.
func (it *Iterator) Done() bool { return it.done }

// TailBound returns B>n for the current n (0 when Done, since exploration
// is exact then).
func (it *Iterator) TailBound() float64 {
	if it.Done() {
		return 0
	}
	return it.params.TailBound(it.n)
}

// ColumnTail returns the per-source tail factor at the current depth,
// Params.ColumnTail over the border's mass and the matrix's RowSumMax:
// prox(u, v) − prox≤n(u, v) ≤ ColMax[v]·ColumnTail() for every node v (0
// when Done). A replayed depth reads the mass its checkpoint layer
// recorded, so the factor is the cold exploration's, bit for bit.
func (it *Iterator) ColumnTail() float64 {
	if it.Done() {
		return 0
	}
	return it.params.ColumnTail(it.mass, it.in.Matrix().RowSumMax())
}

// RatioTail is feasibility property 2 in its two-step ratio form, the
// factor of RatioBound at the current depth. Let b_n be the border at
// depth n and r = max_v b_n[v] / b_{n−2}[v] over the cells where b_n is
// not zero (+∞ when such a cell has b_{n−2} = 0). Each step is
// b ↦ bᵀM/γ with M ≥ 0, so b_n ≤ r·b_{n−2} carries over, step by step:
// b_{n+2i} ≤ r^i·b_n and b_{n+2i+1} ≤ r^(i+1)·b_{n−1}. For r < 1
//
//	prox(v) − prox≤n(v) = Cγ Σ_{j≥1} b_{n+j}[v] ≤ r/(1−r) · Cγ(b_n + b_{n−1})[v]
//
// and Cγ(b_n + b_{n−1})[v] is prox≤n(v) − prox≤(n−2)(v), which is what
// RatioBound takes. The ratio is over two steps because the social graph
// is close to bipartite: one-step ratios oscillate, two-step ones settle
// at the square of the border's decay rate, where the bound is
// asymptotically exact. RatioTail returns r/(1−r) for r raised by
// 2^−32, and +∞ when that is not below 1; the ratio of an empty border
// is 0, and so is its factor.
//
// The raise covers propagation rounding. A propagated cell of in-degree
// d is within (d+1) units of the last place of the exact propagation of
// the border before it, so each float step can inflate the ratio a
// border obeys by a factor 1 + 2(d+1)·2^−53, compounding over the steps
// still ahead. Raising r by 2^−32 covers that while (d+1)·i ≤ 2^19 for
// the i double steps that follow; past them r^i has taken the remaining
// tail below the last bit of prox≤n for every r not within a few percent
// of 1. The quotients taking r round within an ulp, far inside the raise.
//
// A replayed depth reads the ratio its checkpoint layer recorded, so the
// factor is the cold exploration's, bit for bit.
func (it *Iterator) RatioTail() float64 {
	r := it.ratio + float64(it.ratio*0x1p-32)
	if !(r < 1) {
		return math.Inf(1)
	}
	return r / (1 - r)
}

// SourceTailBound bounds prox(u, src) for every source src belonging to —
// or adjacent to — a component not yet reached at depth n. A connection
// source is at most two network edges away from some node of its
// component (author → tag → subject); hence if no component node was
// reached within n steps, no path of length ≤ n−1 reaches the source:
// prox(u, src) ≤ B>(n−1) = γ^−n, property 2's uniform form (with
// ColumnTail's row-sum assumption). Used for the unexplored-document
// threshold of §4.
//
// Once the two-step ratio is finite (see RatioTail) the bound is 0. A
// finite ratio means supp(b_n) ⊆ supp(b_{n−2}), and a border's support is
// the out-neighbourhood of the one before it, so supp(b_{n+1}) ⊆
// supp(b_{n−1}) and supp(b_{n+2}) ⊆ supp(b_n): by induction every later
// border stays inside nodes already reached. A node that no border has
// reached never will be, so neither will a component no node of which
// was reached, nor a source two edges from it, which would reach that
// component within two more steps: prox(u, src) = 0. Floats only shrink
// a support: a cell whose mass underflows is 0, unreached, and it is
// unreached in every float exploration, ExactProximity included, since
// each steps this one kernel in one summation order.
func (it *Iterator) SourceTailBound() float64 {
	if it.Done() || it.ratio < math.Inf(1) {
		return 0
	}
	return math.Pow(it.params.Gamma, -float64(it.n))
}

// Step advances the exploration to depth n+1 and folds the new border into
// prox≤n (feasibility property 1: prox≤n = prox≤n−1 + Uprox). It returns
// the nodes whose proximity became non-zero for the first time — exactly
// the nodes "discovered" at this depth — in ascending id. Like AllProx,
// the returned slice is read-only and only valid until the next Step.
func (it *Iterator) Step() []graph.NID {
	if it.done {
		return nil
	}
	if it.n < len(it.layers) {
		return it.replayStep()
	}
	it.handOff()
	m := it.in.Matrix()
	invGamma := 1 / it.params.Gamma
	cg := it.params.CGamma()
	all, next := it.ownAll(), it.next
	disc := it.disc[:0]
	var border []int32

	// Both paths fold the cells of xᵀ·M in ascending order the same way:
	// scale by 1/γ; a cell still non-zero is on the border and adds its
	// share to prox≤n, one that is zero (never reached, or its scaled mass
	// underflowed) does not. The sparse path folds the cells its push
	// touched, the dense path every cell, with no branch but the ratio's
	// (foldDense). Both sum the new border's mass in borderMass's order
	// and take its ratio over the border two depths back in ratioCell's.
	// That border is spent then and is cleared to become the next step's
	// accumulator.
	var mass, ratio float64
	dense := it.n > 0 && (it.kernel == kernelDense || it.kernel == kernelAuto && m.Saturated(it.active))
	if dense {
		m.PushDense(it.border, next)
		border, disc, mass, ratio = foldDense(next, it.prev, all, resized(it.spare, len(next)), resized(disc, len(next)), invGamma, cg)
		clear(it.prev)
	} else {
		var lanes borderMass
		touched := m.PushSparse(it.border, it.active, next, it.scratch, it.spare)
		border = touched[:0]
		for _, c := range touched {
			v := float64(next[c] * invGamma)
			next[c] = v
			if v == 0 {
				continue
			}
			lanes[c&3] += v
			ratio = ratioCell(ratio, v, it.prev[c])
			border = append(border, c)
			if reach(all, c, v, cg) {
				disc = append(disc, graph.NID(c))
			}
		}
		sparse.ZeroVec(it.prev, it.prevActive)
		mass = lanes.sum()
	}
	// A border at depth n+1 carries at most (ρ/γ)^(n+1), γ^−(n+1) when
	// ρ = 1; rounding may carry the sum past it, and the cap keeps the
	// per-source bound no looser than the uniform one.
	it.mass = min(mass, math.Pow(m.RowSumMax()/it.params.Gamma, float64(it.n+1)))
	it.ratio = ratio
	if it.rec {
		var l proxLayer
		if saturatedLayer(len(border), len(all)) {
			l.all, l.disc = frozen(all), frozen(disc)
		} else {
			l = borderLayer(border, next)
		}
		l.mass, l.ratio = it.mass, it.ratio
		it.layers = append(it.layers, l)
	}
	it.prev, it.border, it.next = it.border, next, it.prev
	it.prevActive, it.active, it.spare = it.active, border, it.prevActive
	it.n++
	it.done = len(border) == 0
	it.disc = disc
	return disc
}

// borderMass sums a border's values, ‖b‖₁, in the one order both kernel
// paths share: cell c adds into lane c mod 4, each lane in ascending c,
// and the lanes combine pairwise. A cell off the border adds +0, which
// changes no lane's bits, so the dense fold's pass over every cell and
// the sparse fold's pass over the border list reach the same sum — and
// the dense pass, four cells a turn, runs no one serial chain of adds.
type borderMass [4]float64

func (m *borderMass) sum() float64 { return (m[0] + m[1]) + (m[2] + m[3]) }

// foldDense is the dense path's fold: one pass over every cell of next
// with no data-dependent branch but ratioCell's, which a settled ratio
// rarely takes. Every cell adds its share to prox≤n — a cell off the
// border adds +0, which leaves prox≤n's bits as they were — its value to
// the border's mass, and its quotient over prev (the border two depths
// back) to the ratio: off the border it is never taken. border and disc
// (each of length len(next)) take every cell id, their cursors advancing
// by a flag only past the ones listed; they come back cut to what was
// listed, ascending. The adds and the lists are reach's.
func foldDense(next, prev, all []float64, border []int32, disc []graph.NID, invGamma, cg float64) ([]int32, []graph.NID, float64, float64) {
	prev = prev[:len(next)]
	all = all[:len(next)]
	border = border[:len(next)]
	disc = disc[:len(next)]
	nb, nd := 0, 0
	// list appends cell c to border when on and to disc when first.
	list := func(c, on, first int) {
		border[nb], disc[nd] = int32(c), graph.NID(c)
		nb, nd = nb+on, nd+first
	}
	// Four cells a turn, one mass lane each, the lanes kept in registers.
	var m0, m1, m2, m3, r float64
	c := 0
	for ; c+4 <= len(next); c += 4 {
		v0, on, first := foldCell(next, all, c, invGamma, cg)
		list(c, on, first)
		r = ratioCell(r, v0, prev[c])
		v1, on, first := foldCell(next, all, c+1, invGamma, cg)
		list(c+1, on, first)
		r = ratioCell(r, v1, prev[c+1])
		v2, on, first := foldCell(next, all, c+2, invGamma, cg)
		list(c+2, on, first)
		r = ratioCell(r, v2, prev[c+2])
		v3, on, first := foldCell(next, all, c+3, invGamma, cg)
		list(c+3, on, first)
		r = ratioCell(r, v3, prev[c+3])
		m0, m1, m2, m3 = m0+v0, m1+v1, m2+v2, m3+v3
	}
	mass := borderMass{m0, m1, m2, m3}
	for ; c < len(next); c++ {
		v, on, first := foldCell(next, all, c, invGamma, cg)
		list(c, on, first)
		r = ratioCell(r, v, prev[c])
		mass[c&3] += v
	}
	return border[:nb], disc[:nd], mass.sum(), r
}

// ratioCell folds one cell into a border's two-step ratio: v is the
// cell's value at depth n, o at depth n−2, r the ratio over the cells
// before it. The quotient is taken only when it would raise r, v > r·o,
// so a cell off the border (v = 0) costs a multiply and a compare, and
// so does every cell once r is +∞ (r·o is then +∞ or NaN); a border cell
// two depths back off the border (o = 0) makes r +∞. Both kernel paths
// fold the border's cells through it in ascending order, so they take
// the same quotients and reach the same bits.
func ratioCell(r, v, o float64) float64 {
	if v > r*o {
		r = max(r, v/o)
	}
	return r
}

// foldCell scales cell c of next by 1/γ and adds its share to prox≤n,
// returning the scaled value, 1 if the cell is on the border (else 0) and
// 1 if that is the first mass the node receives.
func foldCell(next, all []float64, c int, invGamma, cg float64) (v float64, on, first int) {
	v = float64(next[c] * invGamma)
	next[c] = v
	a := all[c]
	all[c] = a + float64(cg*v)
	// v and a are non-negative, never −0 and never NaN, so testing their
	// bits against zero is the float test without its NaN handling:
	// v != 0 (and v > 0), a == 0.
	on = flag(math.Float64bits(v) != 0)
	return v, on, flag(math.Float64bits(a) == 0) & on
}

// resized returns xs with length n, reallocated only when its capacity is
// short; the contents are unspecified.
func resized[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	return xs[:n]
}

// flag is 1 for true and 0 for false; the compiler emits no branch.
func flag(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// borderLayer copies a border (ascending nodes, values in the dense
// vector) into its recorded sparse form.
func borderLayer(nodes []int32, dense []float64) proxLayer {
	vals := make([]float64, len(nodes))
	for i, c := range nodes {
		vals[i] = dense[c]
	}
	return proxLayer{nodes: frozen(nodes), vals: vals}
}

// frozen copies xs into a slice of exactly its length: a recorded layer
// lives as long as a cache entry and is accounted by length, so it carries
// no append slack.
func frozen[T any](xs []T) []T {
	out := make([]T, len(xs))
	copy(out, xs)
	return out
}

// reach adds border cell c's share Cγ·v to prox≤n and reports whether
// that is the first mass the node receives. Sparse steps and replayed
// narrow layers accumulate prox≤n through it, and foldDense makes the
// same add; the conversion rounds the product before the add, so no
// architecture fuses the two.
func reach(all []float64, c int32, v, cg float64) bool {
	first := all[c] == 0 && v > 0
	all[c] += float64(cg * v)
	return first
}

// replayStep advances a resumed iterator through one recorded depth. A
// saturated depth is adopted: AllProx becomes the recorded snapshot and
// the recorded discoveries are returned, no cell is touched. A narrow one
// is the fold of a real Step over the same cells in the same ascending
// order, minus the matrix propagation. Either way prox≤n, n, Done and the
// discovered list are the very bits the recording exploration had; the
// border is left for handOff.
func (it *Iterator) replayStep() []graph.NID {
	l := &it.layers[it.n]
	it.n++
	it.stale = true
	it.mass, it.ratio = l.mass, l.ratio
	if l.all != nil {
		// A saturated border is never empty.
		it.all, it.done = l.all, false
		return l.disc
	}
	all := it.ownAll()
	cg := it.params.CGamma()
	disc := it.disc[:0]
	for i, c := range l.nodes {
		if reach(all, c, l.vals[i], cg) {
			disc = append(disc, graph.NID(c))
		}
	}
	it.done = len(l.nodes) == 0
	it.disc = disc
	return disc
}

// ownAll makes prox≤n the iterator's own, writable vector — copying a
// borrowed snapshot out of the checkpoint first — and returns it.
func (it *Iterator) ownAll() []float64 {
	if &it.all[0] != &it.own[0] {
		copy(it.own, it.all)
		it.all = it.own
	}
	return it.own
}

// handOff makes border/active describe depth n and prev/prevActive depth
// n−1 after replayed steps, from the borders the checkpoint saved for its
// last two depths. The last depth is the one a replay can leave by
// propagating, and that step's ratio reads the depth before it, so those
// are the two borders a checkpoint keeps.
func (it *Iterator) handOff() {
	if !it.stale {
		return
	}
	if it.n < len(it.layers) {
		panic("score: the border is not kept inside a checkpoint's recorded depths")
	}
	if !it.rewound {
		sparse.ZeroVec(it.border, it.active) // depth 0, left by Reset
		it.active = scatter(it.border, it.active, it.last)
		it.prevActive = scatter(it.prev, it.prevActive, it.prevLast) // empty, left by Reset
	}
	it.stale = false
}

// scatter writes a narrow layer's values into the all-zero dense vector
// and returns its node list in list's storage.
func scatter(dense []float64, list []int32, l proxLayer) []int32 {
	for i, c := range l.nodes {
		dense[c] = l.vals[i]
	}
	return append(list[:0], l.nodes...)
}

// ExactProximity iterates until the tail bound falls below eps (or the
// graph is exhausted) and returns prox(u, ·) within eps. It is the
// reference implementation used by oracles and quality measures.
func ExactProximity(in *graph.Instance, params Params, seeker graph.NID, eps float64) []float64 {
	it := NewIterator(in, params, seeker)
	for !it.Done() && it.TailBound() > eps {
		it.Step()
	}
	out := make([]float64, len(it.all))
	copy(out, it.all)
	return out
}

// Scorer evaluates the concrete S3k score of one query over one instance.
// The query is fixed by its keyword groups: groups[i] is the semantic
// extension Ext(k_i) of the i-th query keyword (Definition 2.1), whose
// keywords it resolves in the index once. A Scorer caches merged
// per-component event lists of multi-keyword groups and is safe for
// single-goroutine use.
type Scorer struct {
	in       *graph.Instance
	params   Params
	postings [][]index.Posting // postings[i][j] is groups[i][j]'s

	cache map[compGroup][]index.Event // made on first use

	// etaPow memoises η^rel by relative fragment depth: the per-term hot
	// paths (Bounds, candidate admission) look fragment-depth powers up
	// here instead of calling math.Pow per term. Entries are computed with
	// math.Pow once, so the cached values are bit-identical to direct
	// calls.
	etaPow []float64
}

type compGroup struct {
	comp  int32
	group int
}

// NewScorer validates the parameters and builds a scorer for the given
// keyword groups.
func NewScorer(in *graph.Instance, ix *index.Index, params Params, groups [][]dict.ID) (*Scorer, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("score: empty query")
	}
	return &Scorer{
		in:       in,
		params:   params,
		postings: ix.Resolve(groups),
		etaPow:   []float64{1},
	}, nil
}

// EtaPow returns η^rel for a relative fragment depth, growing the memo
// table on demand. Like the event cache it is for single-goroutine use.
func (s *Scorer) EtaPow(rel int) float64 {
	for len(s.etaPow) <= rel {
		s.etaPow = append(s.etaPow, math.Pow(s.params.Eta, float64(len(s.etaPow))))
	}
	return s.etaPow[rel]
}

// Postings returns the query's resolved postings, shaped like its groups.
// They must not be modified.
func (s *Scorer) Postings() [][]index.Posting { return s.postings }

// GroupEvents returns the deduplicated union, over the keywords of group
// gi, of the events anchored in the component — i.e. the materialised
// con(·, k_gi) tuples of that component. con is a set of (type, f, src)
// tuples, so an identical tuple contributed by two extension keywords
// counts once (Definition 2.1 keeps extensions lossless).
func (s *Scorer) GroupEvents(comp int32, gi int) []index.Event {
	if group := s.postings[gi]; len(group) == 1 {
		// One keyword means one event list and nothing to deduplicate
		// (the index stores each (type, f, src) once per keyword) — the
		// common no-extension case is one binary search, cheaper than the
		// cache it would otherwise fill.
		return group[0].InComp(comp)
	}
	key := compGroup{comp: comp, group: gi}
	if evs, ok := s.cache[key]; ok {
		return evs
	}
	var merged []index.Event
	seen := make(map[index.Event]struct{})
	for _, p := range s.postings[gi] {
		for _, ev := range p.InComp(comp) {
			if _, dup := seen[ev]; dup {
				continue
			}
			seen[ev] = struct{}{}
			merged = append(merged, ev)
		}
	}
	if s.cache == nil {
		s.cache = make(map[compGroup][]index.Event)
	}
	s.cache[key] = merged
	return merged
}

// Bounds computes the lower and upper score bounds of candidate d given
// the current bounded proximity vector and the per-source tail factor
// (§4, ComputeCandidateBounds):
//
//	lower uses prox≤n(u,src);  upper uses min(1, prox≤n(u,src) + ColMax[src]·tail)
//
// with ColMax the matrix's column maxima. tail is Iterator.ColumnTail at
// the vector's depth, 0 for an exact vector. Containment connections
// resolve their source to d itself. This is the column tail alone: the
// search engine also keeps each source's prox history and takes the
// smaller of this tail and RatioBound's.
func (s *Scorer) Bounds(d graph.NID, allProx []float64, tail float64) (lo, hi float64) {
	lo, hi = 1, 1
	colMax := s.in.Matrix().ColMax()
	comp := s.in.CompOf(d)
	for gi := range s.postings {
		var mLo, mHi float64
		for _, ev := range s.GroupEvents(comp, gi) {
			rel, ok := s.in.PosLen(d, ev.Frag)
			if !ok {
				continue
			}
			eta := s.EtaPow(int(rel))
			src := ev.Src
			if ev.Type == index.Contains {
				src = d
			}
			p := allProx[src]
			mLo += float64(eta * p)
			mHi += float64(eta * math.Min(1, p+float64(colMax[src]*tail)))
		}
		lo *= mLo
		hi *= mHi
	}
	return lo, hi
}

// Exact computes the score of d under a given (exact) proximity vector.
func (s *Scorer) Exact(d graph.NID, prox []float64) float64 {
	lo, _ := s.Bounds(d, prox, 0)
	return lo
}

// Bscore implements Bscore(q, B) (feasibility property 4): an upper
// bound on the score of any document all of whose connection sources have
// proximity at most B. masses[g] bounds the connection mass of a single
// candidate for the g-th query keyword: the sum, over the keyword's
// extension, of the largest per-component event count (every connection
// of a candidate lives in its own component, and η ≤ 1). The bound is
// Π_g masses[g]·B.
func Bscore(masses []int, B float64) float64 {
	t := 1.0
	for _, mass := range masses {
		t *= float64(mass) * B
	}
	return t
}
