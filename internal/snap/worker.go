// Worker-host loading: what a shard worker process opens.
//
// A worker answers postings requests for one or more co-hosted shards of
// a set — the events of a keyword on a shard — and nothing else: the
// coordinator runs the exploration over the substrate it maps with the
// manifest. So OpenWorkerHost reads just two small sections of the
// manifest (meta, for the node and component counts, and the layout),
// checksums them, and lets the manifest go; then it binds each hosted
// shard file to that layout and decodes its connection index into an
// index.Flat. Mapped, a worker host holds its shard files and nothing
// more: the manifest is loaded through a Files of its own, closed before
// the open returns, and each shard file through the WorkerSnapshot's
// Files, whose Close unmaps them once deferred verification is done.
//
// Integrity: the manifest's two sections are checksummed during the open
// in either mode. VerifyEager checksums every shard payload during the
// open too; VerifyLazy defers the shard-file digests and section CRCs to
// a background collector surfaced through WaitVerify/VerifyErr (see
// verify.go).
package snap

import (
	"fmt"
	"path/filepath"

	"s3/internal/graph"
	"s3/internal/index"
)

// WorkerSnapshot is an opened worker-host view of a shard set: the hosted
// shards' postings plus the files backing them.
type WorkerSnapshot struct {
	// Layout is the manifest's shard table; Shards every hosted ordinal in
	// hosted order.
	Layout *Layout
	Shards []int
	// Postings holds each hosted shard's connection index, validated, and
	// Tags its tag count (from the shard header), both in Shards order.
	Postings []index.Flat
	Tags     []int
	Files

	// verify collects the integrity checks a VerifyLazy open deferred
	// (nil after an eager open: everything already verified).
	verify *DeferredVerify
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

// Close unmaps the shard files, first waiting out any deferred
// verification still reading them.
func (s *WorkerSnapshot) Close() error {
	if s.verify != nil {
		_ = s.verify.Wait()
	}
	return s.Files.Close()
}

// OpenWorkerHost opens a set of co-hosted shards for one worker process:
// the manifest's meta and layout, then each hosted shard file's postings.
// See the package comment for what is read and when it is verified.
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
	numNodes, layout, err := readWorkerManifest(manifestPath, mode)
	if err != nil {
		return nil, err
	}
	for _, s := range shards {
		if s < 0 || s >= len(layout.Shards) {
			return nil, fmt.Errorf("snap: shard %d outside layout of %d shards", s, len(layout.Shards))
		}
	}

	out := &WorkerSnapshot{Layout: layout, Shards: append([]int(nil), shards...), Files: Files{Mode: mode}}
	var dv *DeferredVerify
	if verify == VerifyLazy {
		dv = &DeferredVerify{}
		out.verify = dv
	}
	fail := func(err error) (*WorkerSnapshot, error) {
		out.Close() // waits out deferred verification before unmapping
		return nil, err
	}
	for _, shard := range shards {
		sdata, sm, err := out.load(filepath.Join(filepath.Dir(manifestPath), layout.Shards[shard].Name))
		if err != nil {
			return fail(fmt.Errorf("snap: opening shard %d: %w", shard, err))
		}
		flat, hdr, spans, err := decodeWorkerShard(sdata, layout, shard, numNodes, dv)
		if err != nil {
			return fail(err)
		}
		adviseMapped(sm, spans)
		out.Postings = append(out.Postings, flat)
		out.Tags = append(out.Tags, hdr.tags)
	}
	return out, nil
}

// decodeWorkerShard binds shard i's file to the layout and decodes its
// connection index into a validated index.Flat over an instance of
// numNodes nodes, as views of data, returning the file's section spans
// alongside. With dv the checksum passes are deferred.
func decodeWorkerShard(data []byte, layout *Layout, i, numNodes int, dv *DeferredVerify) (index.Flat, shardHeader, []secSpan, error) {
	f, hdr, err := parseShard(data, layout, i, dv)
	if err != nil {
		return index.Flat{}, hdr, nil, err
	}
	flat, err := flatFromPayloads(f.payloads, "shard snapshot")
	if err != nil {
		return index.Flat{}, hdr, nil, err
	}
	if err := flat.Validate(numNodes); err != nil {
		return index.Flat{}, hdr, nil, fmt.Errorf("snap: shard %d: %w", i, err)
	}
	if len(flat.Evs) != hdr.events {
		return index.Flat{}, hdr, nil, fmt.Errorf("snap: shard %d has %d events, header says %d", i, len(flat.Evs), hdr.events)
	}
	return flat, hdr, f.spans, nil
}

// readWorkerManifest reads what a worker host needs of the manifest — the
// node count from meta, and the layout — checksumming both sections, and
// releases the file again: nothing decoded from it aliases its bytes.
func readWorkerManifest(path string, mode LoadMode) (int, *Layout, error) {
	const what = "shard-set manifest"
	files := Files{Mode: mode}
	defer files.Close()
	data, _, err := files.load(path)
	if err != nil {
		return 0, nil, err
	}
	keep := []byte{secMeta, secLayout}
	f, err := readAligned(data, ManifestMagic, what, keep, nil)
	if err != nil {
		return 0, nil, err
	}
	if err := requireSections(f.payloads, what, keep); err != nil {
		return 0, nil, err
	}
	var meta graph.Raw
	numNodes, err := decodeMeta(f.payloads[secMeta], &meta)
	if err != nil {
		return 0, nil, err
	}
	layout, err := decodeLayout(f.payloads[secLayout], meta.NComp)
	if err != nil {
		return 0, nil, err
	}
	return numNodes, layout, nil
}
