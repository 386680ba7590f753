package s3

import (
	"io"
	"sync/atomic"

	"s3/internal/snap"
)

// LoadMode selects how a snapshot or shard-set file becomes a servable
// instance.
type LoadMode int

// Both modes run the same decoder and the same checks, and need a host
// whose struct layout aliases the on-disk encoding (little-endian, with
// 8-byte-aligned float64 fields, as on amd64 and arm64); on any other
// host every open fails with an error that says so.
const (
	// LoadCopy reads the file into private, GC-owned memory and serves
	// queries from views of it: self-contained, and independent of the
	// file afterwards, which may be rewritten or unlinked. This is the
	// default.
	LoadCopy LoadMode = LoadMode(snap.LoadCopy)
	// LoadMmap memory-maps the file and serves queries from views of its
	// pages: cold start is O(page faults) plus checksum and validation
	// scans, replicas of one snapshot on a host share physical pages, and
	// hot reload swaps mappings instead of re-reading. Close must be
	// called when the instance is retired (searches still running must
	// finish first).
	LoadMmap LoadMode = LoadMode(snap.LoadMmap)
)

// WriteSnapshot serialises the frozen instance — dictionary, graph
// tables, saturated ontology and the connection index — in the versioned
// binary snapshot format of internal/snap (currently version 8:
// page-aligned raw sections that a mmap-based reader serves without
// decoding). Unlike EncodeSpec, which stores the declarative content and
// re-runs the whole build pipeline on load, a snapshot stores the built
// structures, each relation once; what the graph determines and a linear
// pass derives (tree depths, document ordinals and children, the URI →
// node table, the network out-edges and the normalised transition matrix,
// the statistics, the postings' component summaries) is left out and
// rebuilt at open, by the code a build runs. So ReadSnapshot cold-starts
// in the time it takes to read flat arrays from disk, scan them and run
// those passes — and OpenSnapshot with LoadMmap without the read.
//
// The format is canonical: the same instance always produces the same
// bytes, so snapshots can be content-addressed, cached and diffed.
func (i *Instance) WriteSnapshot(w io.Writer) error {
	return snap.Write(w, i.in, i.ix)
}

// ReadSnapshot reconstructs an instance from a snapshot written by
// WriteSnapshot, read into private memory (LoadCopy semantics — use
// OpenSnapshot for the mapped load). The snapshot embeds
// the text-pipeline configuration, so no language parameter is needed.
// Corrupt or truncated snapshots are rejected with an error.
func ReadSnapshot(r io.Reader) (*Instance, error) {
	in, ix, err := snap.Read(r)
	if err != nil {
		return nil, err
	}
	return newInstance(in, ix, nil, 1), nil
}

// OpenSnapshot loads a snapshot file in the given mode. With LoadMmap the
// instance's tables are views into the mapped file: call Close when the
// instance is retired (after in-flight searches finish) to unmap it.
// Strings returned by the public API (results, extensions, RDF bindings)
// are always private copies and stay valid after Close.
func OpenSnapshot(path string, mode LoadMode) (*Instance, error) {
	s, err := snap.Open(path, snap.LoadMode(mode))
	if err != nil {
		return nil, err
	}
	i := newInstance(s.Instance, s.Index, nil, 1)
	i.setMapped(s.MappedBytes(), s.Close)
	return i, nil
}

// lifecycle owns the optional memory mapping behind an instance: the
// bytes count for /stats and an idempotent release hook.
type lifecycle struct {
	mappedBytes int64
	closed      atomic.Bool
	release     func() error
}

func (l *lifecycle) setMapped(bytes int64, release func() error) {
	l.mappedBytes = bytes
	l.release = release
}

// MappedBytes reports how many snapshot bytes back this instance through
// a memory mapping (0 for copy-loaded instances).
func (l *lifecycle) MappedBytes() int64 { return l.mappedBytes }

// Close releases the instance's memory mapping, if any. It must only be
// called once no search is executing on the instance; it is idempotent
// and a no-op for copy-loaded instances. Values previously returned by
// the public API (results, extensions, statistics) remain valid.
func (l *lifecycle) Close() error {
	if l.release == nil || !l.closed.CompareAndSwap(false, true) {
		return nil
	}
	return l.release()
}
