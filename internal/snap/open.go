// Path-based snapshot opening with a load mode: the seam between the
// on-disk format and the two ways of getting a file's bytes into memory.
// loadFile is the one place a path becomes bytes; the four role openers
// (Open, OpenManifest, OpenShardSet here, OpenWorkerHost in worker.go)
// decode what it returns, and both modes run the same decoder over it:
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
// returned Mapping owns the pages; whoever holds the instance must hold a
// mapping reference and Release it when the instance is retired.
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

// Snapshot is an opened snapshot: the instance, its index, and — in
// mapped mode — the mapping that owns their backing pages.
type Snapshot struct {
	Instance *graph.Instance
	Index    *index.Index
	// Mapping is non-nil exactly when Mode is LoadMmap; the holder of the
	// snapshot owns one reference and must Release it when done.
	Mapping *mman.Mapping
	// Mode is the load mode of the open.
	Mode LoadMode
}

// MappedBytes returns the size of the backing mapping, 0 for a copied
// snapshot.
func (s *Snapshot) MappedBytes() int64 {
	if s.Mapping == nil {
		return 0
	}
	return s.Mapping.Size()
}

// Close releases the mapping reference held by the snapshot (a no-op for
// copied snapshots). The instance and index must not be used afterwards.
func (s *Snapshot) Close() error {
	m := s.Mapping
	s.Mapping = nil
	return m.Release()
}

// ShardSetSnapshot is an opened shard set: the fully validated set plus
// the mappings (manifest first, then shards in layout order) that own the
// backing pages of whatever was mapped.
type ShardSetSnapshot struct {
	Set *ShardSet
	// Mappings holds one entry per file under LoadMmap, none under
	// LoadCopy.
	Mappings []*mman.Mapping
	// Mode is the load mode of the open.
	Mode LoadMode
}

// MappedBytes sums the sizes of the backing mappings.
func (s *ShardSetSnapshot) MappedBytes() int64 {
	var total int64
	for _, m := range s.Mappings {
		total += m.Size()
	}
	return total
}

// Close releases every mapping reference held by the shard set.
func (s *ShardSetSnapshot) Close() error {
	var first error
	for _, m := range s.Mappings {
		if err := m.Release(); err != nil && first == nil {
			first = err
		}
	}
	s.Mappings = nil
	return first
}

// sectionAdvice classifies a section for madvise: postings and matrix
// arrays are point-looked-up (per border node, per admitted component),
// so readahead around a fault is wasted bandwidth — MADV_RANDOM; the
// lookup structures every search walks (dictionary, node tables,
// offsets) are small and hot — MADV_WILLNEED prefetches them off the
// first queries' critical path. Everything else keeps the kernel
// default.
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

// loadFile gets one file into memory. LoadCopy reads it into a private
// aligned buffer. LoadMmap maps it and returns the mapping, which the
// caller now owns one reference to (and must Release if decoding fails).
func loadFile(path string, mode LoadMode) ([]byte, *mman.Mapping, error) {
	if mode != LoadMmap {
		data, err := readPrivate(path)
		return data, nil, err
	}
	m, err := mman.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return m.Data(), m, nil
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

// loadKept is loadFile for an open that spans several files: a mapping
// joins *kept at once, so the Close of whoever owns the list releases it
// on a failed open too.
func loadKept(path string, mode LoadMode, kept *[]*mman.Mapping) ([]byte, *mman.Mapping, error) {
	data, m, err := loadFile(path, mode)
	if m != nil {
		*kept = append(*kept, m)
	}
	return data, m, err
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
	out := &ShardSetSnapshot{Set: &ShardSet{}, Mode: mode}
	fail := func(err error) (*ShardSetSnapshot, error) {
		out.Close()
		return nil, err
	}

	mdata, mm, err := loadKept(manifestPath, mode, &out.Mappings)
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
		sdata, sm, err := loadKept(filepath.Join(dir, desc.Name), mode, &out.Mappings)
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
// shard table) without loading any index slice.
type ManifestSnapshot struct {
	Base   *graph.Instance
	Layout *Layout
	// Mapping is non-nil exactly when the manifest stayed mapped.
	Mapping *mman.Mapping
	Mode    LoadMode
}

// MappedBytes returns the size of the backing mapping, 0 when copied.
func (s *ManifestSnapshot) MappedBytes() int64 {
	if s.Mapping == nil {
		return 0
	}
	return s.Mapping.Size()
}

// Close releases the mapping reference held by the manifest snapshot.
func (s *ManifestSnapshot) Close() error {
	m := s.Mapping
	s.Mapping = nil
	return m.Release()
}

// OpenManifest loads a shard-set manifest alone, in the requested mode.
func OpenManifest(path string, mode LoadMode) (*ManifestSnapshot, error) {
	data, m, err := loadFile(path, mode)
	if err != nil {
		return nil, err
	}
	base, layout, spans, err := decodeManifest(data)
	if err != nil {
		m.Release()
		return nil, err
	}
	adviseMapped(m, spans)
	return &ManifestSnapshot{Base: base, Layout: layout, Mapping: m, Mode: mode}, nil
}

// ParseManifest decodes a shard-set manifest held in memory — one fetched
// over the network, say — as a LoadCopy open decodes the file: from a
// private aligned copy of data, checksums and every check included.
func ParseManifest(data []byte) (*ManifestSnapshot, error) {
	base, layout, _, err := decodeManifest(alignedCopy(data))
	if err != nil {
		return nil, err
	}
	return &ManifestSnapshot{Base: base, Layout: layout, Mode: LoadCopy}, nil
}

// Open loads a snapshot file in the requested mode.
func Open(path string, mode LoadMode) (*Snapshot, error) {
	data, m, err := loadFile(path, mode)
	if err != nil {
		return nil, err
	}
	in, ix, spans, err := decodeSnapshot(data)
	if err != nil {
		m.Release()
		return nil, err
	}
	adviseMapped(m, spans)
	return &Snapshot{Instance: in, Index: ix, Mapping: m, Mode: mode}, nil
}
