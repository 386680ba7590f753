// Tests for a postings reply carrying several shards, the probe's
// protocol-version check and the tuned coordinator transport.
package dshard

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"s3/internal/core"
	"s3/internal/datagen"
	"s3/internal/dict"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/snap"
)

// TestBatchedWireRoundTrip covers a reply batching several shards'
// blocks: it decodes only whole, for exactly the shards requested, with
// every event vetted against the shard whose block carries it, and with
// no tail or exactly a traced reply's 8-byte handling time.
func TestBatchedWireRoundTrip(t *testing.T) {
	shards := []int{0, 2}
	// Shard s owns the fragments with s == frag % 4.
	owns := func(shard int, evs []index.Event) error {
		for _, ev := range evs {
			if int(ev.Frag)%4 != shard {
				return fmt.Errorf("fragment %d is not shard %d's", ev.Frag, shard)
			}
		}
		return nil
	}
	frame := func(blocks ...[]index.Event) []byte {
		e := &enc{}
		for _, evs := range blocks {
			appendEvents(e, evs)
		}
		return e.b
	}
	reply := frame(
		[]index.Event{{Frag: 4, Src: 1, Type: index.RelatedTo}}, []index.Event{{Frag: 8, Src: graph.NoNID}},
		nil, []index.Event{{Frag: 2, Src: 7, Type: index.CommentsOn}, {Frag: 6, Src: 7, Type: index.CommentsOn}},
	)
	kws := []dict.ID{3, 5}
	parts, _, err := decodePostingsReply(reply, shards, kws, owns, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(parts[0].Kws, kws) || len(parts[0].Evs) != 2 || !slices.Equal(parts[1].Kws, kws[1:]) || len(parts[1].Evs) != 2 {
		t.Fatalf("decoded shards %+v, want keywords %v with 2 events and %v with 2", parts, kws, kws[1:])
	}
	if _, _, err := decodePostingsReply(reply, []int{2, 0}, kws, owns, time.Now()); err == nil {
		t.Error("blocks answering for each other's shards accepted")
	}
	if _, _, err := decodePostingsReply(reply, append(shards, 1), kws, owns, time.Now()); err == nil {
		t.Error("a reply missing a requested shard's blocks accepted")
	}
	overrun := bytes.Clone(reply)
	binary.LittleEndian.PutUint32(overrun, 1000) // the first block claims events the payload cannot hold
	if _, _, err := decodePostingsReply(overrun, shards, kws, owns, time.Now()); err == nil || !strings.Contains(err.Error(), "overrun") {
		t.Errorf("event count overrunning the payload: %v", err)
	}
	for cut := 0; cut < len(reply); cut++ {
		if _, _, err := decodePostingsReply(reply[:cut], shards, kws, owns, time.Now()); err == nil {
			t.Fatalf("reply truncated to %d of %d bytes accepted", cut, len(reply))
		}
	}
	// A reply ends after its blocks or after a traced reply's 8-byte
	// handling time: any other tail fails it.
	traced := binary.LittleEndian.AppendUint64(bytes.Clone(reply), 42)
	if _, sp, err := decodePostingsReply(traced, shards, kws, owns, time.Now()); err != nil || sp == nil || sp.Dur != 42*time.Microsecond {
		t.Fatalf("traced reply: span %+v, error %v", sp, err)
	}
	for _, tail := range []int{1, 2, 3, 4, 5, 6, 7, 9, 16} {
		cut := append(bytes.Clone(reply), make([]byte, tail)...)
		if _, _, err := decodePostingsReply(cut, shards, kws, owns, time.Now()); err == nil {
			t.Errorf("a tail of %d bytes accepted", tail)
		}
	}
}

// TestReplyDecodeLimits: a CRC-valid reply claiming more events than a
// frame of 9-byte events could hold is refused before the decoder grows
// anything for them, and an event whose varint is cut short, overflows or
// names a node past int32 is refused.
func TestReplyDecodeLimits(t *testing.T) {
	// Zero bytes encode the Contains event on node 0, then its repeats:
	// two bytes an event, so the count fits the frame and only the cap
	// refuses it.
	n := maxReplyEvents + 1
	e := &enc{}
	e.u32(uint32(n))
	e.b = append(e.b, make([]byte, minEventSize*n)...)
	p, err := readBody(bytes.NewReader(appendRecord(nil, e.b)))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = decodePostingsReply(p, []int{0}, []dict.ID{1}, acceptAll, time.Now())
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("a reply of %d events: %v, want the cap's refusal", n, err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Fatalf("refusing %d events allocated %d bytes", n, grown)
	}

	for name, tc := range map[string]struct {
		event []byte
		want  string
	}{
		"fragment varint cut short": {[]byte{0x80, 0x80}, "truncated"},
		"source varint cut short":   {[]byte{0x00, 0x80}, "truncated"},
		"source missing":            {[]byte{0x80, 0x01}, "truncated"},
		"varint past 64 bits":       {bytes.Repeat([]byte{0xff}, 11), "overflows"},
		"fragment past int32":       {append(binary.AppendUvarint(nil, zigzag(math.MaxInt32+1)*3), 0), "out of range"},
		"source past int32":         {binary.AppendUvarint([]byte{0x00}, math.MaxInt32+2), "out of range"},
	} {
		e := &enc{}
		e.u32(1)
		e.b = append(e.b, tc.event...)
		if _, _, err := decodePostingsReply(e.b, []int{0}, []dict.ID{1}, acceptAll, time.Now()); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want %q", name, err, tc.want)
		}
	}
}

// TestPostingsReplyFramed: a worker states its postings reply's length
// and sends it unchunked, so no terminator can trail the record in a
// write of its own. The request asks for every keyword: net/http states
// the length by itself only of a body that fits its 2 KiB buffer.
func TestPostingsReplyFramed(t *testing.T) {
	_, set, _, servers := smallTopology(t)
	kws := set.Set.Base.SortedKeywordsByFrequency()
	slices.Sort(kws)
	r := postingsRequest{shards: []int{0}, kws: kws}
	resp, err := http.Post(servers[0].URL+pathPostings, "application/octet-stream", bytes.NewReader(appendRecord(nil, appendPostingsRequest(nil, r))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d, %v", resp.StatusCode, err)
	}
	if len(body) <= 2<<10 {
		t.Fatalf("a %d-byte reply fits net/http's buffers", len(body))
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("Content-Length %d, transfer encoding %v for a %d-byte body", resp.ContentLength, resp.TransferEncoding, len(body))
	}
	p, err := readBody(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodePostingsReply(p, r.shards, r.kws, acceptAll, time.Now()); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPostingsCodec encodes and decodes the reply a one-shard worker
// sends for the most common keyword of a serving-scale twitter instance,
// and reports its wire bytes per event.
func BenchmarkPostingsCodec(b *testing.B) {
	spec, _ := datagen.Twitter(datagen.DefaultTwitterOptions())
	in, ix := buildInstance(b, spec)
	kws := in.SortedKeywordsByFrequency()
	kw := []dict.ID{kws[len(kws)-1]}
	f := ix.Flat()
	evs := f.Events(kw[0])
	e := &enc{}
	b.ReportAllocs()
	for b.Loop() {
		e.b = e.b[:0]
		appendEvents(e, evs)
		if _, _, err := decodePostingsReply(e.b, []int{0}, kw, acceptAll, time.Time{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(e.b))/float64(len(evs)), "B/event")
	b.ReportMetric(float64(len(evs)), "events")
}

// smallSpec is the corpus the transport tests share: big enough to need
// several rounds, small enough to keep the battery fast.
func smallSpec() graph.Spec {
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets, o.Seed = 50, 180, 13
	spec, _ := datagen.Twitter(o)
	return spec
}

// smallTopology builds a 2-shard set with live workers and returns the
// manifest path, the opened set, the worker objects and their servers.
func smallTopology(t *testing.T) (string, *snap.ShardSetSnapshot, []*Worker, []*httptest.Server) {
	t.Helper()
	in, ix := buildInstance(t, smallSpec())
	manifestPath := writeSet(t, in, ix, 2)
	set, err := snap.OpenShardSet(manifestPath, snap.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	workers := make([]*Worker, 2)
	servers := make([]*httptest.Server, 2)
	for i := range workers {
		workers[i] = NewWorker(WorkerConfig{ManifestPath: manifestPath, Shards: []int{i}, Mode: snap.LoadMmap})
		if err := workers[i].Load(); err != nil {
			t.Fatal(err)
		}
		servers[i] = httptest.NewServer(workers[i].Handler())
		t.Cleanup(servers[i].Close)
	}
	return manifestPath, set, workers, servers
}

// rewriteProto wraps a worker handler so /healthz advertises proto (or,
// when proto is nil, omits the field) while on is set.
func rewriteProto(inner http.Handler, on *atomic.Bool, proto *int) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/healthz" || !on.Load() {
			inner.ServeHTTP(rw, req)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, req)
		var m map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		delete(m, "proto")
		if proto != nil {
			m["proto"] = *proto
		}
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(rec.Code)
		json.NewEncoder(rw).Encode(m)
	})
}

// TestProtoVersionMismatch: there is one protocol version and no
// negotiation. A worker whose /healthz reports any other version — or
// none — is listed unhealthy with both version numbers, is never picked,
// and leaves its shard uncovered; once it reports the coordinator's
// version again the next probe readmits it.
func TestProtoVersionMismatch(t *testing.T) {
	_, set, workers, servers := smallTopology(t)
	older := protoVersion - 1
	spec := deepQuery(t, set, 1)
	for name, proto := range map[string]*int{"older": &older, "absent": nil} {
		var rewrite atomic.Bool
		rewrite.Store(true)
		proxy := httptest.NewServer(rewriteProto(workers[1].Handler(), &rewrite, proto))
		t.Cleanup(proxy.Close)
		coord, err := NewCoordinator(CoordinatorConfig{
			WorkerURLs: []string{servers[0].URL, proxy.URL},
			ShardCount: len(set.Set.Layout.Shards), SetID: set.Set.Layout.SetID,
			Client: &http.Client{Timeout: 10 * time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		err = coord.Probe(context.Background())
		if err == nil || !strings.Contains(err.Error(), "no healthy worker for shard 1") {
			t.Fatalf("%s: probe over a mismatched worker returned %v, want no healthy worker for shard 1", name, err)
		}
		reported := 0
		if proto != nil {
			reported = *proto
		}
		for _, ws := range coord.Stats().Workers {
			if ws.URL != proxy.URL {
				if !ws.Healthy {
					t.Fatalf("%s: matching worker %s benched: %s", name, ws.URL, ws.Error)
				}
				continue
			}
			if ws.Healthy {
				t.Fatalf("%s: mismatched worker reported healthy", name)
			}
			if want := fmt.Sprintf("speaks protocol %d, coordinator speaks %d", reported, protoVersion); !strings.Contains(ws.Error, want) {
				t.Fatalf("%s: error %q does not name both versions (%q)", name, ws.Error, want)
			}
		}
		if _, err := coord.pickShard(1, nil); err == nil {
			t.Fatalf("%s: mismatched worker picked for shard 1", name)
		}
		if _, _, err := coord.Search(spec, core.CoordOptions{}); err == nil {
			t.Fatalf("%s: search succeeded with shard 1 only on a mismatched worker", name)
		}

		rewrite.Store(false)
		if err := coord.Probe(context.Background()); err != nil {
			t.Fatalf("%s: probe after the rewrite was lifted: %v", name, err)
		}
		if _, _, err := coord.Search(spec, core.CoordOptions{}); err != nil {
			t.Fatalf("%s: search after readmission: %v", name, err)
		}
	}
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNoRedialAcrossSearch: the membership probe pre-warms the tuned
// keep-alive transport, and a search reads every reply to its end, so no
// search dials a connection at all.
func TestNoRedialAcrossSearch(t *testing.T) {
	_, set, _, servers := smallTopology(t)
	urls := make([]string, len(servers))
	for i, srv := range servers {
		urls[i] = srv.URL
	}

	var dials atomic.Int32
	tr := newTransport(len(urls))
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return dialer.DialContext(ctx, network, addr)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		WorkerURLs: urls, ShardCount: len(set.Set.Layout.Shards), SetID: set.Set.Layout.SetID,
		Client: &http.Client{Timeout: 10 * time.Second, Transport: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Probe(context.Background()); err != nil {
		t.Fatal(err)
	}
	probed := dials.Load()
	if probed == 0 {
		t.Fatal("probe did not dial (instrumentation broken?)")
	}
	spec := deepQuery(t, set, 1)
	for i := 0; i < 3; i++ {
		if _, _, err := coord.Search(spec, core.CoordOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := dials.Load() - probed; got != 0 {
		t.Fatalf("3 searches dialed %d connections to %d hosts over the pre-warmed transport, want 0", got, len(urls))
	}
}
