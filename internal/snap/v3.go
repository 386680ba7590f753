// The snapshot's sections: every heavy table of the instance as a
// fixed-width little-endian array in the aligned container (aligned.go),
// alongside the varint meta section. The encoding of each array equals
// the in-memory representation of its Go element type on little-endian
// machines (struct sections write explicit zero padding), which is what
// lets the mapped loader reinterpret a section as a typed slice with
// unsafe.Slice instead of decoding it.
//
// Beside the instance's own tables the format stores the derived lookup
// structures a loader would otherwise have to rebuild: the dictionary's sorted
// permutation (binary-searched lookups over the string arena), the
// ontology's (S,P,O)- and (P,O,S)-sorted triple permutations (frozen RDF
// graph), the children lists in CSR form, the dense URI→node table, and
// the per-event component ids of the connection index. They are all
// cheap to validate and free to load.
package snap

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"unsafe"

	"s3/internal/dict"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/rdf"
)

// Section ids of the raw aligned arrays (32 and up; ids below 32 are the
// varint sections of snap.go). Values are part of the on-disk format;
// never renumber.
const (
	sec3DictArena    byte = 32 // []byte    string arena, entries concatenated in id order
	sec3DictOffs     byte = 33 // []int64   n+1 arena offsets
	sec3DictPerm     byte = 34 // []int32   ids in ascending string order
	sec3NodeDictID   byte = 35 // []dict.ID node URI ids
	sec3NodeKind     byte = 36 // []byte    node kinds
	sec3NodeParent   byte = 37 // []NID     tree parents (NoNID for roots)
	sec3NodeDepth    byte = 38 // []int32   tree depths
	sec3NodeDocOf    byte = 39 // []int32   document ordinals (-1 outside docs)
	sec3NodeName     byte = 40 // []dict.ID node names
	sec3NodeComp     byte = 41 // []int32   component ids
	sec3NodeKwOff    byte = 42 // []int64   n+1 offsets into the keyword list
	sec3NodeKwIDs    byte = 43 // []dict.ID flattened content keywords
	sec3EdgeOff      byte = 44 // []int64   n+1 offsets into the edge array
	sec3Edges        byte = 45 // []Edge    flattened out-edges (16 B each)
	sec3TotalW       byte = 46 // []float64 neighbourhood out-weights
	sec3MatRowPtr    byte = 47 // []int32   CSR row pointers (n+1)
	sec3MatCol       byte = 48 // []int32   CSR column indices
	sec3MatVal       byte = 49 // []float64 CSR values
	sec3Triples      byte = 50 // []Triple  saturated ontology (24 B each)
	sec3TripleSPO    byte = 51 // []int32   triples sorted by (S,P,O)
	sec3TriplePOS    byte = 52 // []int32   triples sorted by (P,O,S)
	sec3Users        byte = 53 // []NID     user nodes
	sec3DocRoots     byte = 54 // []NID     document roots
	sec3TagList      byte = 55 // []NID     tag nodes (ascending)
	sec3TagInfos     byte = 56 // []TagInfo aligned with the tag list (16 B each)
	sec3Comments     byte = 57 // []CommentEdge (12 B each)
	sec3Posts        byte = 58 // []PostEdge (8 B each)
	sec3KwFreqKeys   byte = 59 // []dict.ID frequency keywords (ascending)
	sec3KwFreqCount  byte = 60 // []int32   frequency counts
	sec3ChildOff     byte = 61 // []int64   n+1 offsets into the children list
	sec3ChildList    byte = 62 // []NID     flattened children (CSR)
	sec3NIDByID      byte = 63 // []NID     dictionary id → node (NoNID elsewhere)
	sec3IndexKw      byte = 64 // []dict.ID posting keywords (ascending)
	sec3IndexEvOff   byte = 65 // []int64   nkw+1 offsets into the event array
	sec3IndexEvents  byte = 66 // []Event   flattened events (12 B each)
	sec3IndexComps   byte = 67 // []int32   component id of each event's fragment
	sec3IndexCompOff byte = 68 // []int64   nkw+1 offsets into the component summary
	sec3IndexCompIDs byte = 69 // []int32   distinct components per posting, flattened
	sec3IndexMaxRun  byte = 70 // []int32   per posting: longest single-component event run
)

// required3Substrate lists the sections a substrate (instance without
// index) reader refuses to run without.
var required3Substrate = []byte{
	secMeta,
	sec3DictArena, sec3DictOffs, sec3DictPerm,
	sec3NodeDictID, sec3NodeKind, sec3NodeParent, sec3NodeDepth,
	sec3NodeDocOf, sec3NodeName, sec3NodeComp, sec3NodeKwOff, sec3NodeKwIDs,
	sec3EdgeOff, sec3Edges, sec3TotalW,
	sec3MatRowPtr, sec3MatCol, sec3MatVal,
	sec3Triples, sec3TripleSPO, sec3TriplePOS,
	sec3Users, sec3DocRoots, sec3TagList, sec3TagInfos, sec3Comments, sec3Posts,
	sec3KwFreqKeys, sec3KwFreqCount,
	sec3ChildOff, sec3ChildList, sec3NIDByID,
}

// required3Index lists the index sections of a snapshot or shard file.
var required3Index = []byte{
	sec3IndexKw, sec3IndexEvOff, sec3IndexEvents, sec3IndexComps,
	sec3IndexCompOff, sec3IndexCompIDs, sec3IndexMaxRun,
}

// --- platform gate for the zero-copy view path ---

// hostLittleEndian reports whether the running machine stores integers
// little-endian (the on-disk byte order).
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// layoutMappable reports whether the in-memory layout of every struct
// element type matches the on-disk encoding, byte for byte. On exotic
// platforms (big-endian, unusual padding) the mapped loader falls back to
// the copying decoder; the file format itself is platform-independent.
func layoutMappable() bool {
	return hostLittleEndian &&
		unsafe.Sizeof(graph.Edge{}) == 16 &&
		unsafe.Offsetof(graph.Edge{}.Prop) == 4 &&
		unsafe.Offsetof(graph.Edge{}.W) == 8 &&
		unsafe.Sizeof(graph.TagInfo{}) == 16 &&
		unsafe.Offsetof(graph.TagInfo{}.Author) == 4 &&
		unsafe.Offsetof(graph.TagInfo{}.Keyword) == 8 &&
		unsafe.Offsetof(graph.TagInfo{}.Type) == 12 &&
		unsafe.Sizeof(graph.CommentEdge{}) == 12 &&
		unsafe.Offsetof(graph.CommentEdge{}.Target) == 4 &&
		unsafe.Offsetof(graph.CommentEdge{}.Prop) == 8 &&
		unsafe.Sizeof(graph.PostEdge{}) == 8 &&
		unsafe.Offsetof(graph.PostEdge{}.User) == 4 &&
		unsafe.Sizeof(rdf.Triple{}) == 24 &&
		unsafe.Offsetof(rdf.Triple{}.P) == 4 &&
		unsafe.Offsetof(rdf.Triple{}.O) == 8 &&
		unsafe.Offsetof(rdf.Triple{}.W) == 16 &&
		unsafe.Sizeof(index.Event{}) == 12 &&
		unsafe.Offsetof(index.Event{}.Src) == 4 &&
		unsafe.Offsetof(index.Event{}.Type) == 8
}

// view reinterprets a raw section as a typed slice without copying. The
// payload aliases the mapping; see graph.Raw's immutability contract.
func view[T any](p []byte, what string) ([]T, error) {
	var zero T
	size := int(unsafe.Sizeof(zero))
	if len(p)%size != 0 {
		return nil, fmt.Errorf("snap: %s section of %d bytes is not a whole number of %d-byte elements", what, len(p), size)
	}
	n := len(p) / size
	if n == 0 {
		return nil, nil
	}
	if uintptr(unsafe.Pointer(&p[0]))%uintptr(unsafe.Alignof(zero)) != 0 {
		return nil, fmt.Errorf("snap: %s section is misaligned in memory", what)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&p[0])), n), nil
}

// --- fixed-width encoders (explicit little-endian; writer side) ---

func encI32s[T ~int32](a []T) []byte {
	out := make([]byte, 4*len(a))
	for i, v := range a {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}

func encU32s[T ~uint32](a []T) []byte {
	out := make([]byte, 4*len(a))
	for i, v := range a {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}

func encI64s(a []int64) []byte {
	out := make([]byte, 8*len(a))
	for i, v := range a {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	}
	return out
}

func encF64s(a []float64) []byte {
	out := make([]byte, 8*len(a))
	for i, v := range a {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

func encEdges(a []graph.Edge) []byte {
	out := make([]byte, 16*len(a))
	for i, e := range a {
		binary.LittleEndian.PutUint32(out[16*i:], uint32(e.To))
		binary.LittleEndian.PutUint32(out[16*i+4:], uint32(e.Prop))
		binary.LittleEndian.PutUint64(out[16*i+8:], math.Float64bits(e.W))
	}
	return out
}

func encTriples(a []rdf.Triple) []byte {
	out := make([]byte, 24*len(a))
	for i, t := range a {
		binary.LittleEndian.PutUint32(out[24*i:], uint32(t.S))
		binary.LittleEndian.PutUint32(out[24*i+4:], uint32(t.P))
		binary.LittleEndian.PutUint32(out[24*i+8:], uint32(t.O))
		// bytes 12-15 are padding, left zero
		binary.LittleEndian.PutUint64(out[24*i+16:], math.Float64bits(t.W))
	}
	return out
}

func encTagInfos(a []graph.TagInfo) []byte {
	out := make([]byte, 16*len(a))
	for i, t := range a {
		binary.LittleEndian.PutUint32(out[16*i:], uint32(t.Subject))
		binary.LittleEndian.PutUint32(out[16*i+4:], uint32(t.Author))
		binary.LittleEndian.PutUint32(out[16*i+8:], uint32(t.Keyword))
		binary.LittleEndian.PutUint32(out[16*i+12:], uint32(t.Type))
	}
	return out
}

func encComments(a []graph.CommentEdge) []byte {
	out := make([]byte, 12*len(a))
	for i, c := range a {
		binary.LittleEndian.PutUint32(out[12*i:], uint32(c.Comment))
		binary.LittleEndian.PutUint32(out[12*i+4:], uint32(c.Target))
		binary.LittleEndian.PutUint32(out[12*i+8:], uint32(c.Prop))
	}
	return out
}

func encPosts(a []graph.PostEdge) []byte {
	out := make([]byte, 8*len(a))
	for i, p := range a {
		binary.LittleEndian.PutUint32(out[8*i:], uint32(p.Doc))
		binary.LittleEndian.PutUint32(out[8*i+4:], uint32(p.User))
	}
	return out
}

func encEvents(a []index.Event) []byte {
	out := make([]byte, 12*len(a))
	for i, e := range a {
		binary.LittleEndian.PutUint32(out[12*i:], uint32(e.Frag))
		binary.LittleEndian.PutUint32(out[12*i+4:], uint32(e.Src))
		out[12*i+8] = byte(e.Type)
		// bytes 9-11 are padding, left zero
	}
	return out
}

// --- fixed-width decoders (portable copy path) ---

func decI32s[T ~int32](p []byte, what string) ([]T, error) {
	if len(p)%4 != 0 {
		return nil, fmt.Errorf("snap: %s section of %d bytes is not a whole number of int32s", what, len(p))
	}
	out := make([]T, len(p)/4)
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return out, nil
}

func decU32s[T ~uint32](p []byte, what string) ([]T, error) {
	if len(p)%4 != 0 {
		return nil, fmt.Errorf("snap: %s section of %d bytes is not a whole number of uint32s", what, len(p))
	}
	out := make([]T, len(p)/4)
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return out, nil
}

func decI64s(p []byte, what string) ([]int64, error) {
	if len(p)%8 != 0 {
		return nil, fmt.Errorf("snap: %s section of %d bytes is not a whole number of int64s", what, len(p))
	}
	out := make([]int64, len(p)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out, nil
}

func decF64s(p []byte, what string) ([]float64, error) {
	if len(p)%8 != 0 {
		return nil, fmt.Errorf("snap: %s section of %d bytes is not a whole number of float64s", what, len(p))
	}
	out := make([]float64, len(p)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out, nil
}

func decEdges(p []byte, what string) ([]graph.Edge, error) {
	if len(p)%16 != 0 {
		return nil, fmt.Errorf("snap: %s section of %d bytes is not a whole number of edges", what, len(p))
	}
	out := make([]graph.Edge, len(p)/16)
	for i := range out {
		out[i] = graph.Edge{
			To:   graph.NID(binary.LittleEndian.Uint32(p[16*i:])),
			Prop: dict.ID(binary.LittleEndian.Uint32(p[16*i+4:])),
			W:    math.Float64frombits(binary.LittleEndian.Uint64(p[16*i+8:])),
		}
	}
	return out, nil
}

func decTriples(p []byte, what string) ([]rdf.Triple, error) {
	if len(p)%24 != 0 {
		return nil, fmt.Errorf("snap: %s section of %d bytes is not a whole number of triples", what, len(p))
	}
	out := make([]rdf.Triple, len(p)/24)
	for i := range out {
		out[i] = rdf.Triple{
			S: dict.ID(binary.LittleEndian.Uint32(p[24*i:])),
			P: dict.ID(binary.LittleEndian.Uint32(p[24*i+4:])),
			O: dict.ID(binary.LittleEndian.Uint32(p[24*i+8:])),
			W: math.Float64frombits(binary.LittleEndian.Uint64(p[24*i+16:])),
		}
	}
	return out, nil
}

func decTagInfos(p []byte, what string) ([]graph.TagInfo, error) {
	if len(p)%16 != 0 {
		return nil, fmt.Errorf("snap: %s section of %d bytes is not a whole number of tag infos", what, len(p))
	}
	out := make([]graph.TagInfo, len(p)/16)
	for i := range out {
		out[i] = graph.TagInfo{
			Subject: graph.NID(binary.LittleEndian.Uint32(p[16*i:])),
			Author:  graph.NID(binary.LittleEndian.Uint32(p[16*i+4:])),
			Keyword: dict.ID(binary.LittleEndian.Uint32(p[16*i+8:])),
			Type:    dict.ID(binary.LittleEndian.Uint32(p[16*i+12:])),
		}
	}
	return out, nil
}

func decComments(p []byte, what string) ([]graph.CommentEdge, error) {
	if len(p)%12 != 0 {
		return nil, fmt.Errorf("snap: %s section of %d bytes is not a whole number of comment edges", what, len(p))
	}
	out := make([]graph.CommentEdge, len(p)/12)
	for i := range out {
		out[i] = graph.CommentEdge{
			Comment: graph.NID(binary.LittleEndian.Uint32(p[12*i:])),
			Target:  graph.NID(binary.LittleEndian.Uint32(p[12*i+4:])),
			Prop:    dict.ID(binary.LittleEndian.Uint32(p[12*i+8:])),
		}
	}
	return out, nil
}

func decPosts(p []byte, what string) ([]graph.PostEdge, error) {
	if len(p)%8 != 0 {
		return nil, fmt.Errorf("snap: %s section of %d bytes is not a whole number of post edges", what, len(p))
	}
	out := make([]graph.PostEdge, len(p)/8)
	for i := range out {
		out[i] = graph.PostEdge{
			Doc:  graph.NID(binary.LittleEndian.Uint32(p[8*i:])),
			User: graph.NID(binary.LittleEndian.Uint32(p[8*i+4:])),
		}
	}
	return out, nil
}

func decEvents(p []byte, what string) ([]index.Event, error) {
	if len(p)%12 != 0 {
		return nil, fmt.Errorf("snap: %s section of %d bytes is not a whole number of events", what, len(p))
	}
	out := make([]index.Event, len(p)/12)
	for i := range out {
		out[i] = index.Event{
			Frag: graph.NID(binary.LittleEndian.Uint32(p[12*i:])),
			Src:  graph.NID(binary.LittleEndian.Uint32(p[12*i+4:])),
			Type: index.ConnType(p[12*i+8]),
		}
	}
	return out, nil
}

// --- writer: sections from a Raw ---

// alignedInstanceSections encodes the substrate of an instance (every
// section except the connection index) in canonical id order.
func alignedInstanceSections(r *graph.Raw) []asec {
	n := len(r.DictID)

	// Dictionary: arena + offsets + sorted permutation.
	arenaLen := 0
	for _, s := range r.Strings {
		arenaLen += len(s)
	}
	arena := make([]byte, 0, arenaLen)
	dictOffs := make([]int64, len(r.Strings)+1)
	for i, s := range r.Strings {
		arena = append(arena, s...)
		dictOffs[i+1] = int64(len(arena))
	}
	dictPerm := make([]int32, len(r.Strings))
	for i := range dictPerm {
		dictPerm[i] = int32(i)
	}
	sort.Slice(dictPerm, func(i, j int) bool { return r.Strings[dictPerm[i]] < r.Strings[dictPerm[j]] })

	// Content keywords and out-edges, flattened to CSR.
	kwOff := make([]int64, n+1)
	nkw := 0
	for _, ks := range r.Keywords {
		nkw += len(ks)
	}
	kwIDs := make([]dict.ID, 0, nkw)
	for v, ks := range r.Keywords {
		kwIDs = append(kwIDs, ks...)
		kwOff[v+1] = int64(len(kwIDs))
	}
	edgeOff := make([]int64, n+1)
	ne := 0
	for _, es := range r.Out {
		ne += len(es)
	}
	edges := make([]graph.Edge, 0, ne)
	for v, es := range r.Out {
		edges = append(edges, es...)
		edgeOff[v+1] = int64(len(edges))
	}

	// Children lists in CSR form, derived from Parent. Appending nodes in
	// ascending NID order reproduces the original document child order
	// (pre-order numbering).
	childOff := make([]int64, n+1)
	for v := 0; v < n; v++ {
		if p := r.Parent[v]; p != graph.NoNID {
			childOff[p+1]++
		}
	}
	for v := 0; v < n; v++ {
		childOff[v+1] += childOff[v]
	}
	childList := make([]graph.NID, childOff[n])
	cursor := make([]int64, n)
	for v := 0; v < n; v++ {
		if p := r.Parent[v]; p != graph.NoNID {
			childList[childOff[p]+cursor[p]] = graph.NID(v)
			cursor[p]++
		}
	}

	// Dense URI→node table over the dictionary.
	nidByID := make([]graph.NID, len(r.Strings))
	for i := range nidByID {
		nidByID[i] = graph.NoNID
	}
	for v, id := range r.DictID {
		if int64(id) < int64(len(nidByID)) {
			nidByID[id] = graph.NID(v)
		}
	}

	spo, pos := rdf.TriplePerms(r.Triples)

	kinds := make([]byte, n)
	for v, k := range r.Kind {
		kinds[v] = byte(k)
	}

	return []asec{
		{secMeta, false, encodeMeta(r).Bytes()},
		{sec3DictArena, true, arena},
		{sec3DictOffs, true, encI64s(dictOffs)},
		{sec3DictPerm, true, encI32s(dictPerm)},
		{sec3NodeDictID, true, encU32s(r.DictID)},
		{sec3NodeKind, true, kinds},
		{sec3NodeParent, true, encI32s(r.Parent)},
		{sec3NodeDepth, true, encI32s(r.Depth)},
		{sec3NodeDocOf, true, encI32s(r.DocOf)},
		{sec3NodeName, true, encU32s(r.NodeName)},
		{sec3NodeComp, true, encI32s(r.Comp)},
		{sec3NodeKwOff, true, encI64s(kwOff)},
		{sec3NodeKwIDs, true, encU32s(kwIDs)},
		{sec3EdgeOff, true, encI64s(edgeOff)},
		{sec3Edges, true, encEdges(edges)},
		{sec3TotalW, true, encF64s(r.TotalW)},
		{sec3MatRowPtr, true, encI32s(r.MatrixRowPtr)},
		{sec3MatCol, true, encI32s(r.MatrixCol)},
		{sec3MatVal, true, encF64s(r.MatrixVal)},
		{sec3Triples, true, encTriples(r.Triples)},
		{sec3TripleSPO, true, encI32s(spo)},
		{sec3TriplePOS, true, encI32s(pos)},
		{sec3Users, true, encI32s(r.Users)},
		{sec3DocRoots, true, encI32s(r.DocRoots)},
		{sec3TagList, true, encI32s(r.TagList)},
		{sec3TagInfos, true, encTagInfos(r.TagInfos)},
		{sec3Comments, true, encComments(r.Comments)},
		{sec3Posts, true, encPosts(r.Posts)},
		{sec3KwFreqKeys, true, encU32s(r.KwFreqKeys)},
		{sec3KwFreqCount, true, encI32s(r.KwFreqCounts)},
		{sec3ChildOff, true, encI64s(childOff)},
		{sec3ChildList, true, encI32s(childList)},
		{sec3NIDByID, true, encI32s(nidByID)},
	}
}

// alignedIndexSections encodes the connection index: the postings
// flattened to (keywords, offsets, events) plus the precomputed per-event
// component ids. comp is the node→component table.
func alignedIndexSections(comp []int32, postings []index.RawPosting) []asec {
	kws := make([]dict.ID, 0, len(postings))
	evOff := make([]int64, 1, len(postings)+1)
	ne := 0
	for _, p := range postings {
		ne += len(p.Events)
	}
	events := make([]index.Event, 0, ne)
	comps := make([]int32, 0, ne)
	compOff := make([]int64, 1, len(postings)+1)
	var compIDs []int32
	maxRuns := make([]int32, 0, len(postings))
	for _, p := range postings {
		kws = append(kws, p.Kw)
		var maxRun, run int32
		for i, ev := range p.Events {
			events = append(events, ev)
			c := int32(-1)
			if ev.Frag >= 0 && int(ev.Frag) < len(comp) {
				c = comp[ev.Frag]
			}
			comps = append(comps, c)
			if i == 0 || c != comps[len(comps)-2] {
				compIDs = append(compIDs, c)
				run = 0
			}
			run++
			if run > maxRun {
				maxRun = run
			}
		}
		evOff = append(evOff, int64(len(events)))
		compOff = append(compOff, int64(len(compIDs)))
		maxRuns = append(maxRuns, maxRun)
	}
	return []asec{
		{sec3IndexKw, true, encU32s(kws)},
		{sec3IndexEvOff, true, encI64s(evOff)},
		{sec3IndexEvents, true, encEvents(events)},
		{sec3IndexComps, true, encI32s(comps)},
		{sec3IndexCompOff, true, encI64s(compOff)},
		{sec3IndexCompIDs, true, encI32s(compIDs)},
		{sec3IndexMaxRun, true, encI32s(maxRuns)},
	}
}

// --- readers ---

// checkOffsets validates a CSR offset table: n+1 entries spanning
// [0, total] monotonically. Every slicing of a flattened array goes
// through this before any sub-slice header is built.
func checkOffsets(off []int64, n int, total int, what string) error {
	if len(off) != n+1 {
		return fmt.Errorf("snap: %s offsets have %d entries for %d rows", what, len(off), n)
	}
	if off[0] != 0 || off[n] != int64(total) {
		return fmt.Errorf("snap: %s offsets span [%d, %d] for %d entries", what, off[0], off[n], total)
	}
	for i := 0; i < n; i++ {
		if off[i] > off[i+1] {
			return fmt.Errorf("snap: decreasing %s offset at row %d", what, i)
		}
	}
	return nil
}

// v3Substrate holds the decoded (or viewed) substrate arrays of a file,
// ready for instance assembly.
type v3Substrate struct {
	raw *graph.Raw

	arena    []byte
	dictOffs []int64
	dictPerm []int32

	childOff  []int64
	childList []graph.NID
	nidByID   []graph.NID

	kwOff   []int64
	kwIDs   []dict.ID
	edgeOff []int64
	edges   []graph.Edge

	spo, pos []int32
}

// substrateFromPayloads decodes the substrate sections. With zeroCopy the
// arrays are views into the payload bytes (which must then outlive the
// instance); otherwise everything is copied into private memory.
func substrateFromPayloads(payloads map[byte][]byte, what string, zeroCopy bool) (*v3Substrate, error) {
	if err := requireSections(payloads, what, required3Substrate); err != nil {
		return nil, err
	}
	s := &v3Substrate{raw: &graph.Raw{}}
	numNodes, err := decodeMeta(payloads[secMeta], s.raw)
	if err != nil {
		return nil, err
	}

	g := &loader{payloads: payloads, zeroCopy: zeroCopy}
	s.arena = payloads[sec3DictArena]
	if !zeroCopy {
		s.arena = append([]byte(nil), s.arena...)
	}
	s.dictOffs = loadI64s(g, sec3DictOffs, "dictionary offsets")
	s.dictPerm = loadI32s[int32](g, sec3DictPerm, "dictionary permutation")
	s.raw.DictID = loadU32s[dict.ID](g, sec3NodeDictID, "node URIs")
	if kinds := payloads[sec3NodeKind]; zeroCopy {
		s.raw.Kind = unsafeKinds(kinds)
	} else {
		s.raw.Kind = make([]graph.NodeKind, len(kinds))
		for i, b := range kinds {
			s.raw.Kind[i] = graph.NodeKind(b)
		}
	}
	s.raw.Parent = loadI32s[graph.NID](g, sec3NodeParent, "node parents")
	s.raw.Depth = loadI32s[int32](g, sec3NodeDepth, "node depths")
	s.raw.DocOf = loadI32s[int32](g, sec3NodeDocOf, "node documents")
	s.raw.NodeName = loadU32s[dict.ID](g, sec3NodeName, "node names")
	s.raw.Comp = loadI32s[int32](g, sec3NodeComp, "node components")
	kwOff := loadI64s(g, sec3NodeKwOff, "keyword offsets")
	kwIDs := loadU32s[dict.ID](g, sec3NodeKwIDs, "content keywords")
	edgeOff := loadI64s(g, sec3EdgeOff, "edge offsets")
	edges := g.edges(sec3Edges, "edges")
	s.raw.TotalW = loadF64s(g, sec3TotalW, "out-weights")
	s.raw.MatrixRowPtr = loadI32s[int32](g, sec3MatRowPtr, "matrix row pointers")
	s.raw.MatrixCol = loadI32s[int32](g, sec3MatCol, "matrix columns")
	s.raw.MatrixVal = loadF64s(g, sec3MatVal, "matrix values")
	s.raw.Triples = g.triples(sec3Triples, "ontology triples")
	s.spo = loadI32s[int32](g, sec3TripleSPO, "triple spo permutation")
	s.pos = loadI32s[int32](g, sec3TriplePOS, "triple pos permutation")
	s.raw.Users = loadI32s[graph.NID](g, sec3Users, "users")
	s.raw.DocRoots = loadI32s[graph.NID](g, sec3DocRoots, "document roots")
	s.raw.TagList = loadI32s[graph.NID](g, sec3TagList, "tags")
	s.raw.TagInfos = g.tagInfos(sec3TagInfos, "tag infos")
	s.raw.Comments = g.comments(sec3Comments, "comment edges")
	s.raw.Posts = g.posts(sec3Posts, "post edges")
	s.raw.KwFreqKeys = loadU32s[dict.ID](g, sec3KwFreqKeys, "frequency keywords")
	s.raw.KwFreqCounts = loadI32s[int32](g, sec3KwFreqCount, "frequency counts")
	s.childOff = loadI64s(g, sec3ChildOff, "children offsets")
	s.childList = loadI32s[graph.NID](g, sec3ChildList, "children list")
	s.nidByID = loadI32s[graph.NID](g, sec3NIDByID, "URI→node table")
	if g.err != nil {
		return nil, g.err
	}

	if numNodes != len(s.raw.DictID) {
		return nil, fmt.Errorf("snap: meta says %d nodes, node table has %d", numNodes, len(s.raw.DictID))
	}
	n := len(s.raw.DictID)
	s.kwOff, s.kwIDs = kwOff, kwIDs
	s.edgeOff, s.edges = edgeOff, edges
	if zeroCopy {
		// The accelerated import takes the flat CSR arrays as-is (offset
		// tables validated there) and materialises per-node headers
		// lazily.
		return s, nil
	}
	if err := checkOffsets(kwOff, n, len(kwIDs), "content keyword"); err != nil {
		return nil, err
	}
	s.raw.Keywords = make([][]dict.ID, n)
	for v := 0; v < n; v++ {
		if lo, hi := kwOff[v], kwOff[v+1]; lo < hi {
			s.raw.Keywords[v] = kwIDs[lo:hi:hi]
		}
	}
	if err := checkOffsets(edgeOff, n, len(edges), "edge"); err != nil {
		return nil, err
	}
	s.raw.Out = make([][]graph.Edge, n)
	for v := 0; v < n; v++ {
		if lo, hi := edgeOff[v], edgeOff[v+1]; lo < hi {
			s.raw.Out[v] = edges[lo:hi:hi]
		}
	}
	return s, nil
}

// unsafeKinds reinterprets the kind byte section as []NodeKind (both are
// one byte; no alignment constraint).
func unsafeKinds(p []byte) []graph.NodeKind {
	if len(p) == 0 {
		return nil
	}
	return unsafe.Slice((*graph.NodeKind)(unsafe.Pointer(&p[0])), len(p))
}

// loader wraps the per-section decode/view dispatch with a sticky error.
type loader struct {
	payloads map[byte][]byte
	zeroCopy bool
	err      error
}

func loadTyped[T any](g *loader, sec byte, what string, dec func(p []byte, what string) ([]T, error)) []T {
	if g.err != nil {
		return nil
	}
	var out []T
	var err error
	if g.zeroCopy {
		out, err = view[T](g.payloads[sec], what)
	} else {
		out, err = dec(g.payloads[sec], what)
	}
	if err != nil {
		g.err = err
	}
	return out
}

func loadI32s[T ~int32](g *loader, sec byte, what string) []T {
	return loadTyped[T](g, sec, what, decI32s[T])
}

func loadU32s[T ~uint32](g *loader, sec byte, what string) []T {
	return loadTyped[T](g, sec, what, decU32s[T])
}

func loadI64s(g *loader, sec byte, what string) []int64 {
	return loadTyped[int64](g, sec, what, func(p []byte, w string) ([]int64, error) { return decI64s(p, w) })
}

func loadF64s(g *loader, sec byte, what string) []float64 {
	return loadTyped[float64](g, sec, what, func(p []byte, w string) ([]float64, error) { return decF64s(p, w) })
}

func (g *loader) edges(sec byte, what string) []graph.Edge {
	return loadTyped[graph.Edge](g, sec, what, decEdges)
}

func (g *loader) triples(sec byte, what string) []rdf.Triple {
	return loadTyped[rdf.Triple](g, sec, what, decTriples)
}

func (g *loader) tagInfos(sec byte, what string) []graph.TagInfo {
	return loadTyped[graph.TagInfo](g, sec, what, decTagInfos)
}

func (g *loader) comments(sec byte, what string) []graph.CommentEdge {
	return loadTyped[graph.CommentEdge](g, sec, what, decComments)
}

func (g *loader) posts(sec byte, what string) []graph.PostEdge {
	return loadTyped[graph.PostEdge](g, sec, what, decPosts)
}

// instanceFromV3 assembles an instance from decoded substrate arrays.
// With zeroCopy it builds the arena dictionary, the frozen ontology and
// the accelerated instance (validation scans only); otherwise it strings
// everything through the classic constructors, yielding a fully private,
// GC-owned instance.
func instanceFromV3(s *v3Substrate, zeroCopy bool) (*graph.Instance, error) {
	if !zeroCopy {
		// Materialise private strings; the classic FromRaw path hashes
		// them into a map dictionary and ignores the stored accelerators.
		if len(s.dictOffs) == 0 {
			return nil, fmt.Errorf("snap: empty dictionary offset section")
		}
		if err := checkOffsets(s.dictOffs, len(s.dictOffs)-1, len(s.arena), "dictionary"); err != nil {
			return nil, err
		}
		strs := make([]string, len(s.dictOffs)-1)
		for i := range strs {
			strs[i] = string(s.arena[s.dictOffs[i]:s.dictOffs[i+1]])
		}
		s.raw.Strings = strs
		in, err := graph.FromRaw(s.raw)
		if err != nil {
			return nil, fmt.Errorf("snap: %w", err)
		}
		return in, nil
	}

	d, err := dict.FromArena(s.arena, s.dictOffs, s.dictPerm)
	if err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	// Raw.Strings stays nil: the trusted import never touches it, and a
	// later Raw() export materialises the table from the dictionary.
	ont, err := rdf.FromTriplesFrozen(d, s.raw.Triples, s.spo, s.pos)
	if err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	in, err := graph.FromRawAccel(s.raw, &graph.Accel{
		Dict:      d,
		Ont:       ont,
		NIDByID:   s.nidByID,
		ChildOff:  s.childOff,
		ChildList: s.childList,
		EdgeOff:   s.edgeOff,
		EdgeList:  s.edges,
		KwOff:     s.kwOff,
		KwList:    s.kwIDs,
	})
	if err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	return in, nil
}

// flatFromPayloads decodes (or, with zeroCopy, views) the connection
// index sections of a snapshot or shard file into their flat form, not
// yet validated.
func flatFromPayloads(payloads map[byte][]byte, what string, zeroCopy bool) (index.Flat, error) {
	if err := requireSections(payloads, what, required3Index); err != nil {
		return index.Flat{}, err
	}
	g := &loader{payloads: payloads, zeroCopy: zeroCopy}
	f := index.Flat{
		Kws:     loadU32s[dict.ID](g, sec3IndexKw, "posting keywords"),
		EvOff:   loadI64s(g, sec3IndexEvOff, "event offsets"),
		Evs:     loadTyped[index.Event](g, sec3IndexEvents, "events", decEvents),
		Comps:   loadI32s[int32](g, sec3IndexComps, "event components"),
		CompOff: loadI64s(g, sec3IndexCompOff, "component summary offsets"),
		CompIDs: loadI32s[int32](g, sec3IndexCompIDs, "component summaries"),
		MaxRuns: loadI32s[int32](g, sec3IndexMaxRun, "component run bounds"),
	}
	return f, g.err
}

// indexFromPayloads assembles the connection index of a snapshot or
// shard file over its (projected) instance.
func indexFromPayloads(in *graph.Instance, payloads map[byte][]byte, what string, zeroCopy bool) (*index.Index, error) {
	f, err := flatFromPayloads(payloads, what, zeroCopy)
	if err != nil {
		return nil, err
	}
	if zeroCopy {
		ix, err := index.FromFlat(in, f)
		if err != nil {
			return nil, fmt.Errorf("snap: %w", err)
		}
		return ix, nil
	}
	// Classic path: rebuild postings and let index.FromRaw re-derive and
	// re-validate everything (including the canonical sort).
	if err := f.Validate(in.NumNodes()); err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	postings := make([]index.RawPosting, len(f.Kws))
	for i, kw := range f.Kws {
		lo, hi := f.EvOff[i], f.EvOff[i+1]
		postings[i] = index.RawPosting{Kw: kw, Events: f.Evs[lo:hi:hi]}
	}
	ix, err := index.FromRaw(in, postings)
	if err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	return ix, nil
}
