// The snapshot's sections: every heavy table of the instance as a
// fixed-width little-endian array in the aligned container (aligned.go),
// alongside the varint meta section. The encoding of each array equals
// the in-memory representation of its Go element type on little-endian
// machines (struct sections write explicit zero padding), which is what
// lets the decoder reinterpret a section as a typed slice with
// unsafe.Slice instead of decoding it, whether the file is mapped or read.
//
// The format stores the graph, each relation once — the dictionary, the
// node tables (URI, kind, parent, name, content keywords), the saturated
// ontology, the tag descriptions, the social, comment and post edges —
// and the connection index's events. Of what the graph determines it
// stores only the structures whose check is cheaper than their
// derivation: the dictionary's sorted permutation (binary-searched
// lookups over the string arena) and the ontology's (P,O,S)-sorted triple
// permutation (the one Ontology.Ext searches) — sorts to build
// (graph.Builder.Build runs them), linear scans to check, which every
// open does. Everything else is derived at open time, by the code that
// derives it for a built instance: the user, document-root and tag lists,
// depths, document ordinals, the children lists, the URI→node table, the
// network out-edges and the normalised transition matrix, the keyword
// frequencies, the component partition and the statistics
// (graph.FromRaw), and the connection index's per-posting component
// summaries (index.FromFlat).
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
	sec3DictArena  byte = 32 // []byte    string arena, entries concatenated in id order
	sec3DictOffs   byte = 33 // []int64   n+1 arena offsets
	sec3DictPerm   byte = 34 // []int32   ids in ascending string order
	sec3NodeDictID byte = 35 // []dict.ID node URI ids
	sec3NodeKind   byte = 36 // []byte    node kinds
	sec3NodeParent byte = 37 // []NID     tree parents (NoNID for roots)
	sec3NodeName   byte = 40 // []dict.ID node names
	sec3NodeKwOff  byte = 42 // []int64   n+1 offsets into the keyword list
	sec3NodeKwIDs  byte = 43 // []dict.ID flattened content keywords
	sec3Triples    byte = 50 // []Triple  saturated ontology (24 B each)
	sec3TriplePOS  byte = 52 // []int32   triples sorted by (P,O,S)
	sec3TagInfos   byte = 56 // []TagInfo one per tag node, ascending (16 B each)
	sec3Comments   byte = 57 // []CommentEdge (12 B each)
	sec3Posts      byte = 58 // []PostEdge (8 B each)
	sec3Social     byte = 71 // []SocialEdge in spec order (24 B each)
	// Retired ids, never to be reused: 61–63 and 67–70 (derived arrays
	// version 4 stored); 38, 39, 46 and 51 (depths, document ordinals,
	// neighbourhood out-weights and the (S,P,O) triple order, which
	// version 5 stored); 41, 53, 54, 55, 59 and 60 (component ids, the
	// user, document-root and tag lists and the keyword frequencies, which
	// version 6 stored); 44, 45, 47, 48 and 49 (the network out-edges and
	// the transition matrix, both in CSR form, which version 7 stored).
	sec3IndexKw     byte = 64 // []dict.ID posting keywords (ascending)
	sec3IndexEvOff  byte = 65 // []int64   nkw+1 offsets into the event array
	sec3IndexEvents byte = 66 // []Event   flattened events (12 B each)
)

// required3Substrate lists the sections a substrate (instance without
// index) reader refuses to run without.
var required3Substrate = []byte{
	secMeta,
	sec3DictArena, sec3DictOffs, sec3DictPerm,
	sec3NodeDictID, sec3NodeKind, sec3NodeParent, sec3NodeName,
	sec3NodeKwOff, sec3NodeKwIDs, sec3Triples, sec3TriplePOS,
	sec3TagInfos, sec3Comments, sec3Posts, sec3Social,
}

// required3Index lists the index sections of a snapshot or shard file.
var required3Index = []byte{sec3IndexKw, sec3IndexEvOff, sec3IndexEvents}

// --- the host gate and typed views ---

// hostLittleEndian reports whether the running machine stores integers
// little-endian (the on-disk byte order).
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// errUnaliasableHost is every opener's answer on a host where
// layoutMappable does not hold (32-bit x86, big-endian): the one decoder
// reads the format's arrays in place, and there is no other. The file
// format itself is platform-independent; the writers run anywhere.
var errUnaliasableHost = errors.New("snap: this host's struct layout cannot alias the snapshot format (it needs little-endian integers and 8-byte-aligned float64 fields)")

// layoutMappable reports whether the in-memory layout of every struct
// element type matches the on-disk encoding, byte for byte.
func layoutMappable() bool {
	return hostLittleEndian &&
		unsafe.Sizeof(graph.SocialEdge{}) == 24 &&
		unsafe.Offsetof(graph.SocialEdge{}.To) == 4 &&
		unsafe.Offsetof(graph.SocialEdge{}.Prop) == 8 &&
		unsafe.Offsetof(graph.SocialEdge{}.W) == 16 &&
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
// slice aliases the file's bytes — a mapping or a private buffer; see
// graph.Raw's immutability contract.
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

func encSocial(a []graph.SocialEdge) []byte {
	out := make([]byte, 24*len(a))
	for i, e := range a {
		binary.LittleEndian.PutUint32(out[24*i:], uint32(e.From))
		binary.LittleEndian.PutUint32(out[24*i+4:], uint32(e.To))
		binary.LittleEndian.PutUint32(out[24*i+8:], uint32(e.Prop))
		// bytes 12-15 are padding, left zero
		binary.LittleEndian.PutUint64(out[24*i+16:], math.Float64bits(e.W))
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

// --- writer: sections from the flat forms ---

// alignedInstanceSections encodes the substrate of an instance (every
// section except the connection index): each of the Raw's arrays as it
// stands, the dictionary's and the ontology's sorted permutations
// included.
func alignedInstanceSections(r *graph.Raw) []asec {
	n := len(r.DictID)
	kinds := make([]byte, n)
	for v, k := range r.Kind {
		kinds[v] = byte(k)
	}

	return []asec{
		{secMeta, false, encodeMeta(r).Bytes()},
		{sec3DictArena, true, r.DictArena},
		{sec3DictOffs, true, encI64s(r.DictOffs)},
		{sec3DictPerm, true, encI32s(r.DictPerm)},
		{sec3NodeDictID, true, encU32s(r.DictID)},
		{sec3NodeKind, true, kinds},
		{sec3NodeParent, true, encI32s(r.Parent)},
		{sec3NodeName, true, encU32s(r.NodeName)},
		{sec3NodeKwOff, true, encI64s(r.KwOff)},
		{sec3NodeKwIDs, true, encU32s(r.KwList)},
		{sec3Triples, true, encTriples(r.Triples)},
		{sec3TriplePOS, true, encI32s(r.TriplePOS)},
		{sec3TagInfos, true, encTagInfos(r.TagInfos)},
		{sec3Comments, true, encComments(r.Comments)},
		{sec3Posts, true, encPosts(r.Posts)},
		{sec3Social, true, encSocial(r.Social)},
	}
}

// alignedIndexSections encodes the connection index in its flat form:
// keywords, offsets, events.
func alignedIndexSections(f index.Flat) []asec {
	return []asec{
		{sec3IndexKw, true, encU32s(f.Kws)},
		{sec3IndexEvOff, true, encI64s(f.EvOff)},
		{sec3IndexEvents, true, encEvents(f.Evs)},
	}
}

// --- readers ---

// loader views sections of a parsed file as typed slices, with a sticky
// error.
type loader struct {
	payloads map[byte][]byte
	err      error
}

func load[T any](g *loader, sec byte, what string) []T {
	if g.err != nil {
		return nil
	}
	out, err := view[T](g.payloads[sec], what)
	g.err = err
	return out
}

// instanceFromPayloads assembles the substrate instance (everything but
// the connection index) of a snapshot or manifest as views of its
// payloads, which must outlive the instance, through graph.FromRaw, whose
// scans check every table.
func instanceFromPayloads(payloads map[byte][]byte, what string) (*graph.Instance, error) {
	if err := requireSections(payloads, what, required3Substrate); err != nil {
		return nil, err
	}
	raw := &graph.Raw{}
	numNodes, err := decodeMeta(payloads[secMeta], raw)
	if err != nil {
		return nil, err
	}
	g := &loader{payloads: payloads}
	raw.DictArena = payloads[sec3DictArena]
	raw.DictOffs = load[int64](g, sec3DictOffs, "dictionary offsets")
	raw.DictPerm = load[int32](g, sec3DictPerm, "dictionary permutation")
	raw.DictID = load[dict.ID](g, sec3NodeDictID, "node URIs")
	raw.Kind = load[graph.NodeKind](g, sec3NodeKind, "node kinds")
	raw.Parent = load[graph.NID](g, sec3NodeParent, "node parents")
	raw.NodeName = load[dict.ID](g, sec3NodeName, "node names")
	raw.KwOff = load[int64](g, sec3NodeKwOff, "keyword offsets")
	raw.KwList = load[dict.ID](g, sec3NodeKwIDs, "content keywords")
	raw.Triples = load[rdf.Triple](g, sec3Triples, "ontology triples")
	raw.TriplePOS = load[int32](g, sec3TriplePOS, "triple pos permutation")
	raw.TagInfos = load[graph.TagInfo](g, sec3TagInfos, "tag infos")
	raw.Comments = load[graph.CommentEdge](g, sec3Comments, "comment edges")
	raw.Posts = load[graph.PostEdge](g, sec3Posts, "post edges")
	raw.Social = load[graph.SocialEdge](g, sec3Social, "social edges")
	if g.err != nil {
		return nil, g.err
	}
	if numNodes != len(raw.DictID) {
		return nil, fmt.Errorf("snap: meta says %d nodes, node table has %d", numNodes, len(raw.DictID))
	}

	in, err := graph.FromRaw(raw)
	if err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	return in, nil
}

// flatFromPayloads views the connection index sections of a snapshot or
// shard file in their flat form, not yet validated.
func flatFromPayloads(payloads map[byte][]byte, what string) (index.Flat, error) {
	if err := requireSections(payloads, what, required3Index); err != nil {
		return index.Flat{}, err
	}
	g := &loader{payloads: payloads}
	f := index.Flat{
		Kws:   load[dict.ID](g, sec3IndexKw, "posting keywords"),
		EvOff: load[int64](g, sec3IndexEvOff, "event offsets"),
		Evs:   load[index.Event](g, sec3IndexEvents, "events"),
	}
	return f, g.err
}
