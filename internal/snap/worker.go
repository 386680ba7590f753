// Worker-host loading: the memory footprint half of distributed shard
// serving.
//
// A worker process serves one or more co-hosted shards of a set. What it
// needs from the shared manifest is the substrate social proximity is
// defined over — the whole-graph transition matrix and the
// node→component table — plus the meta/layout bookkeeping; each hosted
// shard's own node rows (kind, parent, depth, document ordinal) arrive
// sliced inside its shard file, alongside its index slice.
// OpenWorkerHost therefore maps the manifest ONCE, parses and checksums
// only the substrate sections, builds every hosted shard's sliced
// instance over that one substrate, and *trims* the rest of the mapping
// away (mman.Trim punches page holes): hosting N shards costs one
// substrate mapping plus N shard files, not N× the substrate. Per-section
// madvise is applied to what remains (random access for matrix and
// postings, prefetch for the warm-path tables).
//
// Integrity: VerifyEager checksums every payload during the open;
// VerifyLazy defers the memory-bandwidth passes — manifest substrate
// section CRCs, shard-file digests, shard section CRCs — to a background
// collector surfaced through WaitVerify/VerifyErr (see verify.go).
package snap

import (
	"fmt"
	"path/filepath"

	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/mman"
)

// WorkerSnapshot is an opened worker-host view of a shard set: the hosted
// shards' engine inputs plus the mappings backing them.
type WorkerSnapshot struct {
	// Instance/Index are the first hosted shard's inputs (the whole view
	// for a single-shard worker); Instances/Indexes hold every hosted
	// shard in Shards order, sharing one substrate.
	Instance  *graph.Instance
	Index     *index.Index
	Instances []*graph.Instance
	Indexes   []*index.Index
	// Layout is the manifest's shard table; Shard the first hosted
	// ordinal, Shards every hosted ordinal in hosted order.
	Layout *Layout
	Shard  int
	Shards []int
	// Mappings holds the live mappings (manifest first); Mode is the load
	// mode that actually happened.
	Mappings []*mman.Mapping
	Mode     LoadMode

	// verify collects the integrity checks a VerifyLazy open deferred
	// (nil after an eager open: everything already verified).
	verify *DeferredVerify
}

// MappedBytes sums the effective sizes of the backing mappings (net of
// trimmed holes).
func (s *WorkerSnapshot) MappedBytes() int64 {
	var total int64
	for _, m := range s.Mappings {
		total += m.Size()
	}
	return total
}

// WaitVerify blocks until any deferred integrity checks complete and
// returns the first failure (nil immediately after an eager open).
func (s *WorkerSnapshot) WaitVerify() error {
	if s.verify == nil {
		return nil
	}
	return s.verify.Wait()
}

// VerifyErr reports, without blocking, any deferred-verification failure
// found so far (always nil after an eager open).
func (s *WorkerSnapshot) VerifyErr() error {
	if s.verify == nil {
		return nil
	}
	return s.verify.Err()
}

// Close releases every mapping reference held by the worker snapshot,
// first waiting out any deferred verification still reading them.
func (s *WorkerSnapshot) Close() error {
	if s.verify != nil {
		_ = s.verify.Wait()
	}
	var first error
	for _, m := range s.Mappings {
		if err := m.Release(); err != nil && first == nil {
			first = err
		}
	}
	s.Mappings = nil
	return first
}

// OpenWorkerHost opens the manifest plus a set of co-hosted shards for
// one worker process: one substrate mapping shared by every hosted
// shard's sliced instance. See the package comment for the trimming and
// verification behaviour.
func OpenWorkerHost(manifestPath string, shards []int, mode LoadMode, verify VerifyMode) (*WorkerSnapshot, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("snap: worker host needs at least one shard")
	}
	seen := make(map[int]bool, len(shards))
	for _, s := range shards {
		if seen[s] {
			return nil, fmt.Errorf("snap: shard %d hosted twice", s)
		}
		seen[s] = true
	}
	out := &WorkerSnapshot{Shard: shards[0], Shards: append([]int(nil), shards...)}
	var dv *DeferredVerify
	if verify == VerifyLazy {
		dv = &DeferredVerify{}
		out.verify = dv
	}
	fail := func(err error) (*WorkerSnapshot, error) {
		out.Close() // waits out deferred verification before unmapping
		return nil, err
	}

	// Partial manifest parse: locate, checksum and decode only the worker
	// substrate sections. The rest of the file is bounds-checked through
	// the table but never touched.
	const what = "shard-set manifest"
	mdata, mm, err := loadKept(manifestPath, mode, &out.Mappings)
	if err != nil {
		return fail(err)
	}
	out.Mode = modeOf(mm)
	mf, err := readAligned(mdata, ManifestMagic, what, manifestSubstrateSections, dv)
	if err != nil {
		return fail(err)
	}
	if err := requireSections(mf.payloads, what, manifestSubstrateSections); err != nil {
		return fail(err)
	}
	sub, err := decodeWorkerSubstrate(mf.payloads, mm != nil)
	if err != nil {
		return fail(err)
	}
	layout, err := decodeLayout(mf.payloads[secLayout], sub.raw.NComp)
	if err != nil {
		return fail(err)
	}
	for _, s := range shards {
		if s < 0 || s >= len(layout.Shards) {
			return fail(fmt.Errorf("snap: shard %d outside layout of %d shards", s, len(layout.Shards)))
		}
	}
	out.Layout = layout

	for _, shard := range shards {
		desc := layout.Shards[shard]
		sdata, sm, err := loadKept(filepath.Join(filepath.Dir(manifestPath), desc.Name), mode, &out.Mappings)
		if err != nil {
			return fail(fmt.Errorf("snap: opening shard %d: %w", shard, err))
		}
		sf, hdr, err := parseShard(sdata, layout, shard, dv)
		if err != nil {
			return fail(err)
		}
		in, ix, err := buildSlicedShard(sub, sf.payloads, hdr, desc, sm != nil)
		if err != nil {
			return fail(err)
		}
		adviseMapped(sm, sf.spans)
		out.Instances = append(out.Instances, in)
		out.Indexes = append(out.Indexes, ix)
	}
	out.Instance, out.Index = out.Instances[0], out.Indexes[0]

	// The manifest mapping now backs only the header, the table and the
	// substrate sections: punch the rest out and advise what remains.
	keep := []mman.Range{{Off: 0, Len: mf.tableEnd}}
	for _, sp := range mf.spans {
		keep = append(keep, mman.Range{Off: sp.off, Len: sp.len})
	}
	mm.Trim(keep)
	adviseMapped(mm, mf.spans)
	return out, nil
}

// workerSubstrate carries the partial-manifest decode: what every hosted
// shard's sliced instance shares.
type workerSubstrate struct {
	raw    graph.Raw // meta only: NComp, Stats, analyzer config
	comp   []int32
	rowPtr []int32
	col    []int32
	val    []float64
	nn     int
}

// decodeWorkerSubstrate decodes the substrate sections a sliced worker
// needs from the manifest's picked payloads.
func decodeWorkerSubstrate(payloads map[byte][]byte, zeroCopy bool) (workerSubstrate, error) {
	var s workerSubstrate
	nn, err := decodeMeta(payloads[secMeta], &s.raw)
	if err != nil {
		return s, err
	}
	s.nn = nn
	g := &loader{payloads: payloads, zeroCopy: zeroCopy}
	s.comp = loadI32s[int32](g, sec3NodeComp, "node components")
	s.rowPtr = loadI32s[int32](g, sec3MatRowPtr, "matrix row pointers")
	s.col = loadI32s[int32](g, sec3MatCol, "matrix columns")
	s.val = loadF64s(g, sec3MatVal, "matrix values")
	if g.err != nil {
		return s, g.err
	}
	return s, nil
}

// buildSlicedShard assembles the sliced worker instance and its index
// slice from the shard file's payloads.
func buildSlicedShard(sub workerSubstrate, spayloads map[byte][]byte, hdr shardHeader, desc ShardDesc, zeroCopy bool) (*graph.Instance, *index.Index, error) {
	g := &loader{payloads: spayloads, zeroCopy: zeroCopy}
	nids := loadI32s[graph.NID](g, sec3SliceNIDs, "sliced nodes")
	parents := loadI32s[graph.NID](g, sec3SliceParent, "sliced parents")
	depths := loadI32s[int32](g, sec3SliceDepth, "sliced depths")
	docOfs := loadI32s[int32](g, sec3SliceDocOf, "sliced documents")
	var kinds []graph.NodeKind
	if kb := spayloads[sec3SliceKind]; zeroCopy {
		kinds = unsafeKinds(kb)
	} else {
		kinds = make([]graph.NodeKind, len(kb))
		for i, b := range kb {
			kinds[i] = graph.NodeKind(b)
		}
	}
	if g.err != nil {
		return nil, nil, g.err
	}
	stats := sub.raw.Stats
	numDocs := stats.Documents
	stats.Documents = desc.Docs
	stats.Components = len(hdr.comps)
	stats.Tags = 0
	for _, k := range kinds {
		if k == graph.KindTag {
			stats.Tags++
		}
	}
	in, err := graph.FromSliced(graph.SlicedConfig{
		NumNodes:     sub.nn,
		Comp:         sub.comp,
		NComp:        sub.raw.NComp,
		MatrixRowPtr: sub.rowPtr,
		MatrixCol:    sub.col,
		MatrixVal:    sub.val,
		Comps:        hdr.comps,
		NIDs:         nids,
		Kind:         kinds,
		Parent:       parents,
		Depth:        depths,
		DocOf:        docOfs,
		NumDocs:      numDocs,
		Stats:        stats,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("snap: shard slice: %w", err)
	}
	ix, err := indexFromPayloads(in, spayloads, "shard snapshot", zeroCopy)
	if err != nil {
		return nil, nil, err
	}
	if got := ix.NumEvents(); got != hdr.events || hdr.events != desc.Events {
		return nil, nil, fmt.Errorf("snap: sliced shard has %d events, header says %d, manifest %d", got, hdr.events, desc.Events)
	}
	return in, ix, nil
}
