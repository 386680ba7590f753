// Proximity checkpoints: immutable snapshots of a bounded-proximity
// exploration that a later search from the same seeker can resume instead
// of re-propagating from depth 0.
//
// A checkpoint does not store the dense prox≤n vector — it stores the
// recorded border *layers* (per depth: the reached nodes in ascending id
// plus their borderProx values). Resuming replays those layers one Step
// at a time through the same fold a propagated step ends in (Iterator's
// reach), over the same cells in the same ascending order, so the
// iterator state at every depth — and therefore every answer computed
// from it — is bit-identical to the cold path. Nothing about how a layer
// was first computed (which kernel path, what frontier history) is left
// in it: a layer is a function of (matrix, seeker, params, depth). Only
// the matrix propagation (the dominant serial cost of candidate-heavy
// queries, §5.2) is skipped; a search that needs to go deeper than the
// checkpoint falls back to real propagation seamlessly, because the
// replayed state at the last recorded depth is the full exploration
// frontier.
package score

import (
	"fmt"

	"s3/internal/graph"
)

// ProxCheckpoint is a frozen exploration of one (instance, seeker, params)
// triple up to some depth. It is immutable and safe to share across
// concurrent searches; resumed iterators never mutate the recorded layers.
type ProxCheckpoint struct {
	in     *graph.Instance
	params Params
	seeker graph.NID
	layers []proxLayer
	bytes  int64
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
	layers := make([]proxLayer, len(it.layers))
	copy(layers, it.layers)
	cp := &ProxCheckpoint{
		in:     it.in,
		params: it.params,
		seeker: it.seeker,
		layers: layers,
	}
	cp.bytes = cp.footprint()
	return cp
}

// ResumeIterator continues a checkpointed exploration over the same
// instance. The returned iterator starts at depth 0 with the recorded
// layers ahead of it: each Step replays a layer (no matrix work) until the
// recorded depth is passed, then propagates for real. Stepped d times it
// is state-identical — bit for bit — to NewRecordingIterator stepped d
// times, for every d.
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
	return nil
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

// layerEntryBytes is the cost of one recorded (node, value) pair; layer
// and struct overheads are folded into fixed per-layer/per-checkpoint
// constants.
const (
	layerEntryBytes     = 4 + 8
	layerOverheadBytes  = 48
	checkpointBaseBytes = 96
)

func (cp *ProxCheckpoint) footprint() int64 {
	b := int64(checkpointBaseBytes)
	for _, l := range cp.layers {
		b += layerOverheadBytes + int64(len(l.nodes))*layerEntryBytes
	}
	return b
}
