// Shard-set persistence: a component-partitioned instance stored as one
// shared manifest plus one small snapshot per shard.
//
// The manifest carries the substrate every shard needs verbatim — the
// dictionary, node tables, network adjacency, normalised transition
// matrix, entity lists and the saturated ontology (all the sections of a
// plain snapshot except the connection index) — plus a layout table
// describing the shard files. The substrate must be shared because the
// §3.4 all-paths social proximity is defined over the whole network
// graph: per-shard proximity over a trimmed graph would change scores.
// What scales with content and partitions cleanly by the §5.2 component
// grain is the connection index, so each shard file carries exactly its
// components' index slice: all a worker host (worker.go) serves.
//
// Every shard file embeds the manifest's set id (a digest of the
// substrate payloads) and its ordinal, and the manifest records each
// shard file's digest, so a mixed-up, stale or corrupted set is rejected
// on read instead of silently serving wrong answers.
//
//	manifest:  "S3SHMF" + version + sections {dict, meta, nodes, graph,
//	           matrix, entities, ontology, layout}
//	shard i:   "S3SHRD" + version + sections {shard header, index slice}
package snap

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"

	"s3/internal/graph"
	"s3/internal/index"
)

// ManifestMagic starts a shard-set manifest file.
const ManifestMagic = "S3SHMF"

// ShardMagic starts a per-shard snapshot file.
const ShardMagic = "S3SHRD"

// ShardDesc describes one shard file from the manifest's point of view.
type ShardDesc struct {
	// Name is the shard file's name, relative to the manifest (no
	// directory components).
	Name string
	// Comps is the sorted set of component ids the shard owns.
	Comps []int32
	// Docs and Events record the shard's document count and index event
	// count, cross-checked against the shard payload on read.
	Docs   int
	Events int
	// Sum is the digest of the shard file's bytes: CRC-32C in the low 32
	// bits — the same hardware-accelerated checksum the aligned container
	// uses per section, so validating a mapped shard costs one
	// memory-bandwidth pass.
	Sum uint64
}

// Layout is the manifest's shard table.
type Layout struct {
	// SetID is the FNV-64a digest of the substrate section payloads; every
	// shard file of the set embeds it.
	SetID  uint64
	Shards []ShardDesc
	// Owner maps each component to the shard owning it: the table of the
	// shards' component lists (graph.ComponentOwners), derived when the
	// layout is decoded — which refuses a layout that does not assign
	// every component to exactly one shard — and not stored.
	Owner []int32
}

// ShardSet is a fully loaded and validated shard set: the base instance
// and one index over it merged from every shard's postings, which is what
// searches run on.
//
// Shards and Indexes exist for a benchmark probe that still runs one
// executor per shard: Shards[i] is Base for every i, and Indexes[i] is
// shard i's postings as an index over Base. The next benchmark change
// retires that probe and deletes both fields with it.
type ShardSet struct {
	Base    *graph.Instance
	Layout  *Layout
	Index   *index.Index
	Shards  []*graph.Instance
	Indexes []*index.Index
}

// WriteShardSet partitions the instance's connection index by the given
// component groups and writes the manifest plus one file per shard.
// names[i] is recorded in the layout as the file name of shard i (it must
// be a bare file name; readers resolve it relative to the manifest).
// The groups must cover every component exactly once.
func WriteShardSet(manifest io.Writer, shards []io.Writer, names []string, in *graph.Instance, ix *index.Index, parts [][]int32) error {
	if len(shards) != len(parts) || len(names) != len(parts) {
		return fmt.Errorf("snap: %d shard writers / %d names for %d component groups", len(shards), len(names), len(parts))
	}
	if len(parts) == 0 {
		return fmt.Errorf("snap: shard set needs at least one shard")
	}
	owner, err := graph.ComponentOwners(in.NumComponents(), parts)
	if err != nil {
		return fmt.Errorf("snap: %w", err)
	}

	rawIn := in.Raw()
	subs := alignedInstanceSections(rawIn)
	setID := fnv.New64a()
	for _, s := range subs {
		setID.Write(s.data)
	}
	docs, tags := graph.ShardContent(in, owner, len(parts))
	postings := make([][]index.RawPosting, len(parts))
	for _, p := range ix.Raw() {
		for _, ev := range p.Events {
			ps := &postings[owner[in.CompOf(ev.Frag)]]
			if n := len(*ps); n == 0 || (*ps)[n-1].Kw != p.Kw {
				*ps = append(*ps, index.RawPosting{Kw: p.Kw})
			}
			last := &(*ps)[len(*ps)-1]
			last.Events = append(last.Events, ev)
		}
	}

	layout := Layout{SetID: setID.Sum64()}
	for s, comps := range parts {
		if err := validateShardName(names[s]); err != nil {
			return err
		}
		desc := ShardDesc{Name: names[s], Comps: append([]int32(nil), comps...), Docs: docs[s]}
		for _, p := range postings[s] {
			desc.Events += len(p.Events)
		}
		hdr := encodeShardHeader(layout.SetID, s, len(parts), shardHeader{comps: desc.Comps, docs: desc.Docs, events: desc.Events, tags: tags[s]})
		var file bytes.Buffer
		secs := append([]asec{{secShardHeader, false, hdr}}, alignedIndexSections(postings[s])...)
		if err := writeAligned(&file, ShardMagic, secs); err != nil {
			return err
		}
		desc.Sum = uint64(crc32.Checksum(file.Bytes(), castagnoli))
		if _, err := shards[s].Write(file.Bytes()); err != nil {
			return fmt.Errorf("snap: writing shard %d: %w", s, err)
		}
		layout.Shards = append(layout.Shards, desc)
	}

	// secLayout (9) sorts before the raw substrate ids (32+), secMeta (2)
	// before both; splice it into canonical id order.
	msecs := append([]asec{subs[0], {secLayout, false, encodeLayout(&layout)}}, subs[1:]...)
	return writeAligned(manifest, ManifestMagic, msecs)
}

// encodeLayout serialises the manifest's layout section.
func encodeLayout(layout *Layout) []byte {
	var lay encoder
	lay.uint(layout.SetID)
	lay.int(len(layout.Shards))
	for _, d := range layout.Shards {
		lay.str(d.Name)
		lay.int(len(d.Comps))
		for _, c := range d.Comps {
			lay.uint(uint64(c))
		}
		lay.int(d.Docs)
		lay.int(d.Events)
		lay.uint(d.Sum)
	}
	return lay.Bytes()
}

// WriteShardSetFiles persists a shard set to disk: the manifest at
// manifestPath plus one "<manifest base name>.shard-<i>" file per
// component group next to it (the names readers resolve relative to the
// manifest). Every file is written to "<name>.tmp" beside its final path
// and renamed into place once all of them are flushed and closed — a
// path some server has mapped is replaced, never rewritten — shard files
// first and the manifest last, so an interrupted replacement leaves a set
// that fails its set-id check instead of serving. Returns the shard file
// paths.
func WriteShardSetFiles(manifestPath string, in *graph.Instance, ix *index.Index, parts [][]int32) ([]string, error) {
	dir, base := filepath.Dir(manifestPath), filepath.Base(manifestPath)
	names := make([]string, len(parts))
	finals := make([]string, len(parts), len(parts)+1)
	for s := range parts {
		names[s] = fmt.Sprintf("%s.shard-%d", base, s)
		finals[s] = filepath.Join(dir, names[s])
	}
	finals = append(finals, manifestPath)

	var files []*os.File
	fail := func(err error) ([]string, error) {
		for _, f := range files {
			f.Close()
			os.Remove(f.Name())
		}
		return nil, err
	}
	writers := make([]io.Writer, len(finals))
	for i, path := range finals {
		f, err := os.Create(path + ".tmp")
		if err != nil {
			return fail(err)
		}
		files = append(files, f)
		writers[i] = f
	}
	if err := WriteShardSet(writers[len(parts)], writers[:len(parts)], names, in, ix, parts); err != nil {
		return fail(err)
	}
	for _, f := range files {
		if err := f.Close(); err != nil {
			return fail(fmt.Errorf("snap: closing %s: %w", f.Name(), err))
		}
	}
	for i, f := range files {
		if err := os.Rename(f.Name(), finals[i]); err != nil {
			return fail(err)
		}
	}
	return finals[:len(parts)], nil
}

// validateShardName rejects names a reader could be tricked into
// resolving outside the manifest's directory.
func validateShardName(name string) error {
	if name == "" || name == "." || name == ".." {
		return fmt.Errorf("snap: invalid shard file name %q", name)
	}
	for _, r := range name {
		if r == '/' || r == '\\' {
			return fmt.Errorf("snap: shard file name %q contains a path separator", name)
		}
	}
	return nil
}

// decodeManifest reconstructs the shared base instance, as views of a
// manifest file's bytes, and the shard layout, returning the file's
// section spans alongside.
func decodeManifest(data []byte) (*graph.Instance, *Layout, []secSpan, error) {
	const what = "shard-set manifest"
	f, err := readAligned(data, ManifestMagic, what, nil, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := requireSections(f.payloads, what, []byte{secLayout}); err != nil {
		return nil, nil, nil, err
	}
	in, err := instanceFromPayloads(f.payloads, what)
	if err != nil {
		return nil, nil, nil, err
	}
	layout, err := decodeLayout(f.payloads[secLayout], in.NumComponents())
	if err != nil {
		return nil, nil, nil, err
	}
	return in, layout, f.spans, nil
}

// decodeLayout parses and fully validates the layout section against the
// base instance's component count.
func decodeLayout(data []byte, nComp int) (*Layout, error) {
	d := &decoder{data: data}
	layout := &Layout{SetID: d.uint()}
	n := d.count(2)
	for s := 0; s < n && d.err == nil; s++ {
		desc := ShardDesc{Name: d.str()}
		nc := d.count(1)
		for i := 0; i < nc && d.err == nil; i++ {
			c := d.uint()
			if c > uint64(math.MaxInt32) {
				d.fail("component id %d overflows", c)
				break
			}
			desc.Comps = append(desc.Comps, int32(c))
		}
		desc.Docs = int(d.uint())
		desc.Events = int(d.uint())
		desc.Sum = d.uint()
		layout.Shards = append(layout.Shards, desc)
		if d.err == nil {
			if err := validateShardName(desc.Name); err != nil {
				return nil, err
			}
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("snap: layout section: %w", d.err)
	}
	if len(layout.Shards) == 0 {
		return nil, fmt.Errorf("snap: manifest describes no shards")
	}
	parts := make([][]int32, len(layout.Shards))
	for s := range layout.Shards {
		parts[s] = layout.Shards[s].Comps
	}
	var err error
	if layout.Owner, err = graph.ComponentOwners(nComp, parts); err != nil {
		return nil, fmt.Errorf("snap: manifest layout: %w", err)
	}
	return layout, nil
}

// parseShard validates shard i's file against the manifest layout — file
// digest, container, required sections, linking header (set id, ordinal,
// component assignment) — without decoding its tables. With dv the
// digest pass is deferred along with the payload checksums.
func parseShard(data []byte, layout *Layout, i int, dv *DeferredVerify) (*alignedFile, shardHeader, error) {
	const what = "shard snapshot"
	if i < 0 || i >= len(layout.Shards) {
		return nil, shardHeader{}, fmt.Errorf("snap: shard %d outside layout of %d shards", i, len(layout.Shards))
	}
	desc := layout.Shards[i]
	if err := dv.check(func() error {
		if uint64(crc32.Checksum(data, castagnoli)) != desc.Sum {
			return fmt.Errorf("snap: shard %d (%s) digest mismatch: file does not match manifest", i, desc.Name)
		}
		return nil
	}); err != nil {
		return nil, shardHeader{}, err
	}
	f, err := readAligned(data, ShardMagic, what, nil, dv)
	if err != nil {
		return nil, shardHeader{}, err
	}
	if err := requireSections(f.payloads, what, []byte{secShardHeader}); err != nil {
		return nil, shardHeader{}, err
	}
	hdr, err := decodeShardHeader(f.payloads[secShardHeader], layout, i)
	if err != nil {
		return nil, shardHeader{}, err
	}
	return f, hdr, nil
}

// setBase is what a set's shard files are decoded against: the base
// instance and the layout, and per shard the documents and tags the base
// holds in the shard's components (graph.ShardContent over the layout's
// owner table), counted once per set.
type setBase struct {
	in         *graph.Instance
	layout     *Layout
	docs, tags []int
}

func newSetBase(in *graph.Instance, layout *Layout) *setBase {
	docs, tags := graph.ShardContent(in, layout.Owner, len(layout.Shards))
	return &setBase{in: in, layout: layout, docs: docs, tags: tags}
}

// decodeShard decodes shard i of a set from its file's bytes, validated
// against the manifest: digest, set id, ordinal and component assignment
// must line up, the header's document and tag counts must be what the
// base instance holds in the shard's components, and no event may lie in
// a component the layout gives another shard. It returns the shard's
// postings and their index over the base instance (views of data), plus
// the file's section spans.
func decodeShard(data []byte, b *setBase, i int) (index.Flat, *index.Index, []secSpan, error) {
	f, hdr, err := parseShard(data, b.layout, i, nil)
	if err != nil {
		return index.Flat{}, nil, nil, err
	}
	if b.docs[i] != hdr.docs || b.tags[i] != hdr.tags {
		return index.Flat{}, nil, nil, fmt.Errorf("snap: shard %d has %d documents and %d tags, header says %d and %d", i, b.docs[i], b.tags[i], hdr.docs, hdr.tags)
	}
	flat, err := flatFromPayloads(f.payloads, "shard snapshot")
	if err != nil {
		return index.Flat{}, nil, nil, err
	}
	ix, err := index.FromFlat(b.in, flat)
	if err != nil {
		return index.Flat{}, nil, nil, fmt.Errorf("snap: shard %d: %w", i, err)
	}
	if got := len(flat.Evs); got != hdr.events {
		return index.Flat{}, nil, nil, fmt.Errorf("snap: shard %d has %d events, header says %d", i, got, hdr.events)
	}
	// The derived component lists name every event's component, and
	// FromFlat refused a fragment in none.
	for _, kw := range flat.Kws {
		for _, c := range ix.Comps(kw) {
			if b.layout.Owner[c] != int32(i) {
				return index.Flat{}, nil, nil, fmt.Errorf("snap: shard %d carries an event of foreign component %d", i, c)
			}
		}
	}
	return flat, ix, f.spans, nil
}

// shardHeader is a parsed per-shard header, cross-checked against the
// manifest layout.
type shardHeader struct {
	comps              []int32
	docs, events, tags int
}

// encodeShardHeader serialises the header section of shard i of n in the
// set setID.
func encodeShardHeader(setID uint64, i, n int, h shardHeader) []byte {
	var e encoder
	e.uint(setID)
	e.int(i)
	e.int(n)
	e.int(len(h.comps))
	for _, c := range h.comps {
		e.uint(uint64(c))
	}
	e.int(h.docs)
	e.int(h.events)
	e.int(h.tags)
	return e.Bytes()
}

// decodeShardHeader parses shard i's header section and validates it
// against the layout: set id, ordinal, shard count, component list and
// document and event counts must all line up.
func decodeShardHeader(payload []byte, layout *Layout, i int) (shardHeader, error) {
	desc := layout.Shards[i]
	d := &decoder{data: payload}
	setID := d.uint()
	ordinal := int(d.uint())
	count := int(d.uint())
	nc := d.count(1)
	comps := make([]int32, 0, nc)
	for j := 0; j < nc && d.err == nil; j++ {
		comps = append(comps, int32(d.uint()))
	}
	docs := int(d.uint())
	events := int(d.uint())
	tags := int(d.uint())
	if d.err != nil {
		return shardHeader{}, fmt.Errorf("snap: shard %d header: %w", i, d.err)
	}
	if setID != layout.SetID {
		return shardHeader{}, fmt.Errorf("snap: shard %d belongs to set %016x, manifest is %016x", i, setID, layout.SetID)
	}
	if ordinal != i || count != len(layout.Shards) {
		return shardHeader{}, fmt.Errorf("snap: file is shard %d of %d, expected shard %d of %d", ordinal, count, i, len(layout.Shards))
	}
	if len(comps) != len(desc.Comps) {
		return shardHeader{}, fmt.Errorf("snap: shard %d owns %d components, manifest says %d", i, len(comps), len(desc.Comps))
	}
	for j, c := range comps {
		if c != desc.Comps[j] {
			return shardHeader{}, fmt.Errorf("snap: shard %d component list diverges from manifest at %d", i, j)
		}
	}
	if docs != desc.Docs || events != desc.Events {
		return shardHeader{}, fmt.Errorf("snap: shard %d header counts %d documents and %d events, manifest %d and %d", i, docs, events, desc.Docs, desc.Events)
	}
	return shardHeader{comps: comps, docs: docs, events: events, tags: tags}, nil
}
