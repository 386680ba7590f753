// Proximity checkpoints: immutable snapshots of a bounded-proximity
// exploration that a later search from the same seeker can resume instead
// of re-propagating from depth 0.
//
// A checkpoint stores each explored depth d in the smaller of two forms
// (proxLayer). A narrow depth is its border — the reached nodes in
// ascending id plus their borderProx values — and is replayed through the
// same fold a propagated step ends in (Iterator's reach), over the same
// cells in the same order. A saturated depth, whose border would take as
// many bytes as a dense vector (12·|border| ≥ 8·N), is the prox≤d vector
// the recording search held at that depth plus that depth's discovery
// list; a resumed iterator adopts it by pointing AllProx at it, touching
// no cell. Each layer also records the border's mass and two-step ratio
// at its depth, which the per-source tails read and a replay has no
// borders to take them from. Either way everything a search round reads —
// AllProx, the discoveries, n, the tail bounds, Done — is the very bits
// the recording search computed, so every answer is bit-identical to the
// cold path.
// Nothing about how a depth was first computed (which kernel path, what
// frontier history) is left in it: a layer is a function of (matrix,
// seeker, params, depth).
//
// The border itself is what a propagation starts from, and a replay can
// only start propagating at the checkpoint's last depth d; that step's
// ratio divides by the border at d−1. So those are the two borders a
// checkpoint keeps besides its narrow layers (last and prevLast). A
// search that needs to go deeper copies the adopted snapshot into its own
// vector, scatters both borders and propagates on. Iterator.Border and
// BorderProx are accordingly defined at depth 0 and from the checkpoint's
// depth onward, not strictly inside it.
package score

import (
	"fmt"
	"math"
	"slices"

	"s3/internal/graph"
)

// ProxCheckpoint is a frozen exploration of one (instance, seeker, params)
// triple up to some depth. It is immutable and safe to share across
// concurrent searches; resumed iterators read the recorded layers, the
// snapshots included, and never write them.
type ProxCheckpoint struct {
	in     *graph.Instance
	params Params
	seeker graph.NID
	layers []proxLayer
	// last is the border at depth d = len(layers) and prevLast the one at
	// d−1, in narrow form: the layer itself when that is narrow, a
	// separate copy when it is a snapshot or depth 0 (the seeker, which no
	// layer holds). Both are empty at depth 0.
	last, prevLast proxLayer
	bytes          int64
}

// Checkpoint publishes the exploration recorded so far. It returns nil on
// a non-recording iterator. The checkpoint covers every recorded layer —
// for a resumed iterator that stopped before exhausting its inherited
// layers, that is the inherited depth, not the replay position — so
// re-publishing after a shallow search never loses depth.
func (it *Iterator) Checkpoint() *ProxCheckpoint {
	if !it.rec {
		return nil
	}
	cp := &ProxCheckpoint{
		in:       it.in,
		params:   it.params,
		seeker:   it.seeker,
		layers:   slices.Clone(it.layers),
		last:     it.last,
		prevLast: it.prevLast,
	}
	// An iterator still on its inherited depths passes the inherited
	// borders on; one that propagated holds the live borders of the last
	// two depths.
	if d := len(it.layers); d > 0 && it.n == d && !it.stale {
		cp.last = cp.borderAt(d, it.active, it.border)
		cp.prevLast = cp.borderAt(d-1, it.prevActive, it.prev)
	}
	cp.bytes = cp.footprint()
	return cp
}

// borderAt is the border at depth k in narrow form: layer k itself when
// it is narrow, else a copy of the live border given.
func (cp *ProxCheckpoint) borderAt(k int, nodes []int32, dense []float64) proxLayer {
	if cp.copied(k) {
		return borderLayer(nodes, dense)
	}
	return cp.layers[k-1]
}

// copied reports whether the checkpoint keeps the border at depth k as a
// copy beside its layers: at depth 0, which no layer holds, and at a
// snapshot-form depth.
func (cp *ProxCheckpoint) copied(k int) bool { return k == 0 || cp.layers[k-1].all != nil }

// ResumeIterator continues a checkpointed exploration over the same
// instance. The returned iterator starts at depth 0 with the recorded
// layers ahead of it: each Step replays a layer (no matrix work) until the
// recorded depth is passed, then propagates for real. Stepped d times its
// AllProx, discovered list, N, tail bounds and Done are identical — bit
// for bit — to NewRecordingIterator stepped d times, for every d; so are
// Border and BorderProx wherever they are defined (see Iterator.Border).
func ResumeIterator(in *graph.Instance, cp *ProxCheckpoint) (*Iterator, error) {
	it := new(Iterator)
	if err := it.Resume(in, cp); err != nil {
		return nil, err
	}
	return it, nil
}

// Resume is Reset into a checkpointed exploration: the iterator restarts
// at depth 0 as a recording iterator with the checkpoint's layers ahead
// of it (see ResumeIterator). On error the iterator is left as it was.
func (it *Iterator) Resume(in *graph.Instance, cp *ProxCheckpoint) error {
	if cp == nil {
		return fmt.Errorf("score: nil checkpoint")
	}
	if cp.in != in {
		return fmt.Errorf("score: checkpoint belongs to a different instance")
	}
	it.Reset(in, cp.params, cp.seeker, true)
	// Full slice expression: appends past the inherited depth must
	// reallocate rather than scribble on an array another iterator resumed
	// from the same checkpoint may also be extending.
	it.layers = cp.layers[:len(cp.layers):len(cp.layers)]
	it.last, it.prevLast = cp.last, cp.prevLast
	return nil
}

// Rewind restarts a recording iterator that was never resumed at depth 0
// with its own recorded layers ahead of it, and stops recording: each Step
// replays a layer, as on a resumed iterator, until the recorded depth is
// passed, then propagates for real. Stepped d times it is identical — bit
// for bit — to NewIterator stepped d times, in AllProx, the discovered
// list, N, the tail bounds and Done, for every d. It takes no checkpoint
// and clears no vector but prox≤n: the live borders still describe the
// recorded depth and the one before it, which is where a propagation past
// the layers starts, so Border and BorderProx are defined from the
// recorded depth onward (at depth 0 too when nothing was recorded), and
// the first propagating Step scatters nothing. Rewinding lets one
// goroutine step an exploration ahead of a search that another then runs
// from depth 0 (see core.Engine.Explore); it panics on an iterator that
// is not recording, or was resumed and sits inside its inherited depths.
func (it *Iterator) Rewind() {
	if !it.rec || it.stale || it.n != len(it.layers) {
		panic("score: Rewind needs a recording iterator at its own recorded depth")
	}
	it.rec = false
	if it.n == 0 {
		return
	}
	clear(it.own)
	it.all = it.own
	it.all[it.seeker] = it.params.CGamma()
	it.n, it.done, it.mass, it.ratio = 0, false, 1, math.Inf(1)
	it.stale, it.rewound = true, true
}

// N returns the exploration depth the checkpoint covers.
func (cp *ProxCheckpoint) N() int { return len(cp.layers) }

// Seeker returns the seeker the exploration started from.
func (cp *ProxCheckpoint) Seeker() graph.NID { return cp.seeker }

// Params returns the damping factors of the exploration.
func (cp *ProxCheckpoint) Params() Params { return cp.params }

// For reports whether the checkpoint was recorded over this instance.
// Checkpoints are bound to the instance pointer: node ids are only
// meaningful within one loaded instance generation.
func (cp *ProxCheckpoint) For(in *graph.Instance) bool { return cp.in == in }

// Supersedes reports whether cp should replace old in a deepen-only cache:
// always when old is nil or was recorded over a different (stale) instance,
// otherwise only when cp explored strictly deeper.
func (cp *ProxCheckpoint) Supersedes(old *ProxCheckpoint) bool {
	return old == nil || old.in != cp.in || len(cp.layers) > len(old.layers)
}

// Bytes returns the checkpoint's approximate memory footprint, the unit a
// byte-budgeted cache accounts evictions in.
func (cp *ProxCheckpoint) Bytes() int64 { return cp.bytes }

// Accounting units: a narrow layer's (node, value) pair, a snapshot's cell
// and discovery; slice headers, a layer's recorded mass and ratio and the
// struct are folded into fixed per-layer/per-checkpoint constants.
const (
	layerEntryBytes     = 4 + 8
	snapshotCellBytes   = 8
	discoveryBytes      = 4
	layerOverheadBytes  = 4*24 + 2*8
	checkpointBaseBytes = 192
)

func (l proxLayer) footprint() int64 {
	return layerOverheadBytes + int64(len(l.nodes))*layerEntryBytes +
		int64(len(l.all))*snapshotCellBytes + int64(len(l.disc))*discoveryBytes
}

func (cp *ProxCheckpoint) footprint() int64 {
	b := int64(checkpointBaseBytes)
	for _, l := range cp.layers {
		b += l.footprint()
	}
	if d := len(cp.layers); d > 0 {
		// The kept borders count where they are copies, not layers.
		if cp.copied(d) {
			b += cp.last.footprint()
		}
		if cp.copied(d - 1) {
			b += cp.prevLast.footprint()
		}
	}
	return b
}
