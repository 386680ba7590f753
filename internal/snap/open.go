// Path-based snapshot opening with a load mode: the seam between the
// on-disk format and the two ways of getting a file's bytes into memory.
// Files.load is the one place a path becomes bytes; the four role openers
// (Open, OpenManifest, OpenShardSet here, OpenWorkerHost in worker.go)
// each load through the Files their result embeds and decode what it
// returns, and both modes run the same decoder over it:
// the instance's tables are typed views of the bytes, lookups go through
// the stored binary-search structures, and open time is the per-section
// checksum pass, allocation-free scans that check structure and hold the
// stored sorted permutations to their order, and the linear passes that
// derive what the file does not store (children lists, the URI→node table,
// the postings' component summaries) into private memory.
//
// LoadCopy reads the file into a private, 8-byte-aligned buffer that the
// garbage collector owns: nothing is kept open, and the file can be
// rewritten or unlinked freely afterwards.
//
// LoadMmap maps the file, so the views point at the page cache. The
// opened result's Files owns every mapping the open made, and its Close
// unmaps them: a failed open closes them at once, and a served result is
// closed when the Generation holding it (generation.go) retires — after
// the last search reading it ends.
//
// Either way the host's struct layout must alias the on-disk encoding
// (layoutMappable); elsewhere every opener returns errUnaliasableHost.
package snap

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"unsafe"

	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/mman"
)

// LoadMode selects how a snapshot file becomes an instance.
type LoadMode int

const (
	// LoadCopy reads the file into private memory and serves queries from
	// views of it (the default).
	LoadCopy LoadMode = iota
	// LoadMmap maps the file and serves queries from views of the mapping.
	LoadMmap
)

func (m LoadMode) String() string {
	if m == LoadMmap {
		return "mmap"
	}
	return "copy"
}

// Files owns the files one open loaded: in LoadMmap mode one mapping per
// file, in load order, which back every view the open decoded; in
// LoadCopy mode none (the private copies belong to the garbage
// collector).
type Files struct {
	Mappings []*mman.Mapping
	// Mode is the load mode of the open.
	Mode LoadMode
}

// MappedBytes sums the sizes of the backing mappings (0 when copied).
func (f *Files) MappedBytes() int64 {
	var total int64
	for _, m := range f.Mappings {
		total += m.Size()
	}
	return total
}

// Close unmaps every file the open mapped; nothing decoded from them may
// be read afterwards. A second Close is a no-op.
func (f *Files) Close() error {
	var first error
	for _, m := range f.Mappings {
		if err := m.Release(); err != nil && first == nil {
			first = err
		}
	}
	f.Mappings = nil
	return first
}

// load gets one file into memory in f's mode. LoadCopy reads it into a
// private aligned buffer. LoadMmap maps it and adds the mapping to f at
// once, so f's Close releases it whether or not the decode that follows
// succeeds; the mapping is returned for the section advice.
func (f *Files) load(path string) ([]byte, *mman.Mapping, error) {
	if f.Mode != LoadMmap {
		data, err := readPrivate(path)
		return data, nil, err
	}
	m, err := mman.Open(path)
	if err != nil {
		return nil, nil, err
	}
	f.Mappings = append(f.Mappings, m)
	return m.Data(), m, nil
}

// Snapshot is an opened snapshot: the instance, its index, and the files
// backing them.
type Snapshot struct {
	Instance *graph.Instance
	Index    *index.Index
	Files
}

// ShardSetSnapshot is an opened shard set: the fully validated set plus
// the files (manifest first, then shards in layout order) backing it.
type ShardSetSnapshot struct {
	Set *ShardSet
	Files
}

// sectionAdvice classifies a section for madvise: postings and matrix
// arrays are point-looked-up (per border node, per admitted component) —
// MADV_RANDOM; the lookup structures every search walks (dictionary, node
// tables, offsets) are small and hot — MADV_WILLNEED. Everything else
// keeps the kernel default.
//
// Every opener gives the advice after its checksum pass has read the
// advised bytes, so it changes little about which pages are resident in
// the page cache. What it buys is resident set size. On Linux with
// transparent huge pages in "madvise" mode, the checksum pass maps the
// head of a mapped file as one 2 MiB huge page (FilePmdMapped); advice
// on a sub-range splits the mapping's VMA at the section boundaries,
// which drops that huge-page mapping, and the sections nothing touches
// afterwards stay unmapped. On the twitter scale-1 snapshot (seed 1, on
// ext4) the mapping's Rss was 1,972 kB with the advice (4 VMAs) and
// 4,020 kB without it (1 VMA, 2,048 kB of it FilePmdMapped), and the
// benchmark's single-cold peak_rss_mb rose by ≈ 1 MiB without it.
func sectionAdvice(id byte) mman.Advice {
	switch id {
	case sec3MatRowPtr, sec3MatCol, sec3MatVal, sec3IndexEvents:
		return mman.AdviseRandom
	case sec3DictArena, sec3DictOffs, sec3DictPerm,
		sec3NodeKind, sec3NodeParent, sec3NodeDepth, sec3NodeDocOf, sec3NodeComp,
		sec3IndexKw, sec3IndexEvOff:
		return mman.AdviseWillNeed
	}
	return mman.AdviseNormal
}

// readPrivate reads a whole file into an aligned private buffer.
func readPrivate(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := alignedBuf(st.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("snap: reading %s: %w", path, err)
	}
	return data, nil
}

// alignedBuf returns n zero bytes backed by a []uint64, so each raw
// section (at a 64-byte file offset) starts 8-byte aligned in memory, as
// a mapping's page-aligned base gives it: the widest element alignment a
// typed view of the format needs.
func alignedBuf(n int64) []byte {
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), n)
}

// alignedCopy copies data into an aligned private buffer.
func alignedCopy(data []byte) []byte {
	out := alignedBuf(int64(len(data)))
	copy(out, data)
	return out
}

// adviseMapped applies per-section access advice to the sections a reader
// kept of a freshly mapped file (a no-op on a nil mapping). Failures are
// ignored: advice is a performance hint, never a correctness requirement.
func adviseMapped(m *mman.Mapping, spans []secSpan) {
	for _, sp := range spans {
		if a := sectionAdvice(sp.id); a != mman.AdviseNormal {
			_ = m.Advise(mman.Range{Off: sp.off, Len: sp.len}, a)
		}
	}
}

// OpenShardSet loads a shard set from disk in the requested mode: the
// manifest at manifestPath plus the shard files it names (resolved in the
// manifest's directory), fully validated, and merges the shards' postings
// into one index over the base instance (index.Merge). In LoadMmap mode
// each file is mapped independently; the merged events are copied to the
// heap.
func OpenShardSet(manifestPath string, mode LoadMode) (*ShardSetSnapshot, error) {
	out := &ShardSetSnapshot{Set: &ShardSet{}, Files: Files{Mode: mode}}
	fail := func(err error) (*ShardSetSnapshot, error) {
		out.Close()
		return nil, err
	}

	mdata, mm, err := out.load(manifestPath)
	if err != nil {
		return fail(err)
	}
	base, layout, spans, err := decodeManifest(mdata)
	if err != nil {
		return fail(err)
	}
	adviseMapped(mm, spans)
	out.Set.Base, out.Set.Layout = base, layout
	sb := newSetBase(base, layout)
	dir := filepath.Dir(manifestPath)
	flats := make([]index.Flat, len(layout.Shards))
	for i, desc := range layout.Shards {
		sdata, sm, err := out.load(filepath.Join(dir, desc.Name))
		if err != nil {
			return fail(fmt.Errorf("snap: opening shard %d: %w", i, err))
		}
		flat, ix, spans, err := decodeShard(sdata, sb, i)
		if err != nil {
			return fail(err)
		}
		adviseMapped(sm, spans)
		flats[i] = flat
		out.Set.Shards = append(out.Set.Shards, base)
		out.Set.Indexes = append(out.Set.Indexes, ix)
	}
	if out.Set.Index, err = index.Merge(base, flats); err != nil {
		return fail(fmt.Errorf("snap: merging the shards' postings: %w", err))
	}
	return out, nil
}

// ManifestSnapshot is an opened shard-set manifest without its shard
// files: the shared base instance and the layout — what a scatter/gather
// coordinator needs (seeker resolution, keyword groups, URI mapping,
// shard table) without loading any index slice — and the file backing
// them.
type ManifestSnapshot struct {
	Base   *graph.Instance
	Layout *Layout
	Files
}

// OpenManifest loads a shard-set manifest alone, in the requested mode.
func OpenManifest(path string, mode LoadMode) (*ManifestSnapshot, error) {
	out := &ManifestSnapshot{Files: Files{Mode: mode}}
	data, m, err := out.load(path)
	var spans []secSpan
	if err == nil {
		out.Base, out.Layout, spans, err = decodeManifest(data)
	}
	if err != nil {
		out.Close()
		return nil, err
	}
	adviseMapped(m, spans)
	return out, nil
}

// ParseManifest decodes a shard-set manifest held in memory — one fetched
// over the network, say — as a LoadCopy open decodes the file: from a
// private aligned copy of data, checksums and every check included.
func ParseManifest(data []byte) (*ManifestSnapshot, error) {
	base, layout, _, err := decodeManifest(alignedCopy(data))
	if err != nil {
		return nil, err
	}
	return &ManifestSnapshot{Base: base, Layout: layout, Files: Files{Mode: LoadCopy}}, nil
}

// Open loads a snapshot file in the requested mode.
func Open(path string, mode LoadMode) (*Snapshot, error) {
	out := &Snapshot{Files: Files{Mode: mode}}
	data, m, err := out.load(path)
	var spans []secSpan
	if err == nil {
		out.Instance, out.Index, spans, err = decodeSnapshot(data)
	}
	if err != nil {
		out.Close()
		return nil, err
	}
	adviseMapped(m, spans)
	return out, nil
}
