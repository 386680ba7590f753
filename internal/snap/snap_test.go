package snap

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"s3/internal/core"
	"s3/internal/datagen"
	"s3/internal/doc"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/score"
	"s3/internal/text"
)

// build freezes a spec and its index the way the public API does.
func build(t testing.TB, spec graph.Spec, an text.Analyzer) (*graph.Instance, *index.Index) {
	t.Helper()
	in, err := graph.BuildSpec(spec, an)
	if err != nil {
		t.Fatal(err)
	}
	return in, index.Build(in)
}

// roundTrip writes and re-reads a snapshot.
func roundTrip(t testing.TB, in *graph.Instance, ix *index.Index) (*graph.Instance, *index.Index, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, in, ix); err != nil {
		t.Fatalf("write: %v", err)
	}
	in2, ix2, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return in2, ix2, buf.Bytes()
}

// searchAll runs a small query battery and returns a printable transcript
// of every result (URIs and exact score-interval bits), so two instances
// can be compared for byte-for-byte equal search behaviour.
func searchAll(t testing.TB, in *graph.Instance, ix *index.Index) string {
	t.Helper()
	eng := core.NewEngine(in, ix)
	var out bytes.Buffer
	kws := in.SortedKeywordsByFrequency()
	// A rare, a mid-frequency and a common keyword.
	var picks []string
	for _, i := range []int{0, len(kws) / 2, len(kws) - 1} {
		if len(kws) > 0 {
			picks = append(picks, in.Dict().String(kws[i]))
		}
	}
	users := in.Users()
	for s := 0; s < len(users) && s < 4; s++ {
		for _, kw := range picks {
			rs, _, err := eng.Search(users[s], []string{kw}, core.Options{
				K: 5, Params: score.Params{Gamma: 1.5, Eta: 0.8},
			})
			if err != nil {
				t.Fatalf("search(%s, %q): %v", in.URIOf(users[s]), kw, err)
			}
			for _, r := range rs {
				fmt.Fprintf(&out, "%s %q %s %d %x %x\n",
					in.URIOf(users[s]), kw, r.URI, r.Doc,
					math.Float64bits(r.Lower), math.Float64bits(r.Upper))
			}
		}
	}
	return out.String()
}

// handSpec exercises every construct the snapshot must carry: ontology
// triples, sub-relationships, nested documents, comments, tags on tags
// and keyword-less endorsements.
func handSpec() graph.Spec {
	return graph.Spec{
		Ontology: [][3]string{
			{"m.s", "rdfs:subClassOf", "degre"},
			{"phd", "rdfs:subClassOf", "degre"},
		},
		Users: []string{"u:alice", "u:bob", "u:carol"},
		Social: []graph.SocialSpec{
			{From: "u:alice", To: "u:bob", W: 0.8},
			{From: "u:bob", To: "u:alice", W: 0.5},
			{From: "u:bob", To: "u:carol", W: 0.9, Prop: "app:follows"},
		},
		Docs: []*doc.Node{
			{URI: "d:post", Name: "post", Children: []*doc.Node{
				{Name: "title", Text: "My M.S. graduation"},
				{Name: "body", Text: "Running towards a degree at the university"},
			}},
			{URI: "d:reply", Name: "reply", Text: "Congrats on the degree, a PhD is next"},
		},
		Posts:    []graph.PostSpec{{Doc: "d:post", User: "u:bob"}},
		Comments: []graph.CommentSpec{{Comment: "d:reply", Target: "d:post.1", Prop: "app:repliesTo"}},
		Tags: []graph.TagSpec{
			{URI: "t:1", Subject: "d:post.1", Author: "u:carol", Keyword: "degree"},
			{URI: "t:2", Subject: "t:1", Author: "u:alice", Keyword: "academia"},
			{URI: "t:3", Subject: "t:1", Author: "u:bob"}, // endorsement
		},
	}
}

func TestRoundTripHandInstance(t *testing.T) {
	in2 := checkRoundTrip(t, handSpec(), text.Analyzer{Lang: text.English})

	// Semantic layer must survive: the extension of "degree" includes the
	// stemmed subclasses.
	degre, _ := in2.Dict().Lookup("degre")
	ext := in2.Ontology().Ext(degre)
	if len(ext) < 2 {
		t.Errorf("ontology lost: Ext(degre) = %d entries", len(ext))
	}
	// The analyzer must survive: English stemming maps "running" → "run".
	if got := in2.Analyzer().Keywords("running"); len(got) != 1 || got[0] != "run" {
		t.Errorf("analyzer lost: Keywords(running) = %v", got)
	}
	// The stored social edges are the spec's, in its order.
	spec := handSpec().Social
	got := in2.Raw().Social
	if len(got) != len(spec) {
		t.Fatalf("%d social edges read back, spec has %d", len(got), len(spec))
	}
	for i, s := range spec {
		prop := s.Prop
		if prop == "" {
			prop = graph.PropSocial
		}
		e := got[i]
		if in2.URIOf(e.From) != s.From || in2.URIOf(e.To) != s.To || in2.Dict().String(e.Prop) != prop || e.W != s.W {
			t.Errorf("social edge %d reads back as %s -%s-> %s (%v), spec %+v", i,
				in2.URIOf(e.From), in2.Dict().String(e.Prop), in2.URIOf(e.To), e.W, s)
		}
	}
}

func TestRoundTripGeneratedInstances(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("twitter/seed=%d", seed), func(t *testing.T) {
			o := datagen.DefaultTwitterOptions()
			o.Users, o.Tweets, o.Seed = 80, 300, seed
			spec, _ := datagen.Twitter(o)
			checkRoundTrip(t, spec, text.Analyzer{Lang: text.None})
		})
	}
	t.Run("vodkaster", func(t *testing.T) {
		o := datagen.DefaultVodkasterOptions()
		o.Users, o.Movies = 60, 40
		checkRoundTrip(t, datagen.Vodkaster(o), text.Analyzer{Lang: text.None})
	})
	t.Run("yelp", func(t *testing.T) {
		o := datagen.DefaultYelpOptions()
		o.Users, o.Businesses = 60, 40
		checkRoundTrip(t, datagen.Yelp(o), text.Analyzer{Lang: text.None})
	})
}

// checkRoundTrip builds the spec, writes its snapshot and reads it back,
// and requires the read-back instance to be the built one: the same
// statistics, search transcript and bytes when written again, and, table
// by table, what an open derives instead of reading — the user, document
// and tag lists, every node's component, the keyword frequencies, every
// node's out-edges and the transition matrix with its norms, bit for bit,
// which the bytes no longer show. It returns the read-back instance.
func checkRoundTrip(t *testing.T, spec graph.Spec, an text.Analyzer) *graph.Instance {
	t.Helper()
	in, ix := build(t, spec, an)
	in2, ix2, raw := roundTrip(t, in, ix)
	if in.Stats() != in2.Stats() {
		t.Errorf("stats changed:\noriginal: %+v\nrestored: %+v", in.Stats(), in2.Stats())
	}
	if got, want := searchAll(t, in2, ix2), searchAll(t, in, ix); got != want {
		t.Errorf("search results changed after round-trip:\noriginal:\n%s\nrestored:\n%s", want, got)
	}
	var buf2 bytes.Buffer
	if err := Write(&buf2, in2, ix2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf2.Bytes()) {
		t.Errorf("snapshot is not canonical: %d bytes vs %d after round-trip", len(raw), buf2.Len())
	}

	for _, l := range []struct {
		name      string
		got, want []graph.NID
	}{
		{"Users", in2.Users(), in.Users()},
		{"DocRoots", in2.DocRoots(), in.DocRoots()},
		{"Tags", in2.Tags(), in.Tags()},
	} {
		if !slices.Equal(l.got, l.want) {
			t.Errorf("%s changed: restored %v, built %v", l.name, l.got, l.want)
		}
	}
	if in2.NumComponents() != in.NumComponents() {
		t.Errorf("NumComponents changed: restored %d, built %d", in2.NumComponents(), in.NumComponents())
	}
	for v := range graph.NID(in.NumNodes()) {
		if got, want := in2.CompOf(v), in.CompOf(v); got != want {
			t.Errorf("CompOf(%d) changed: restored %d, built %d", v, got, want)
		}
	}
	kws := in.SortedKeywordsByFrequency()
	if got := in2.SortedKeywordsByFrequency(); !slices.Equal(got, kws) {
		t.Errorf("SortedKeywordsByFrequency changed: restored %v, built %v", got, kws)
	}
	for _, k := range kws {
		if got, want := in2.KeywordFrequency(k), in.KeywordFrequency(k); got != want {
			t.Errorf("KeywordFrequency(%s) changed: restored %d, built %d", in.Dict().String(k), got, want)
		}
	}

	sameEdge := func(a, b graph.Edge) bool {
		return a.To == b.To && a.Prop == b.Prop && math.Float64bits(a.W) == math.Float64bits(b.W)
	}
	sameSocial := func(a, b graph.SocialEdge) bool {
		return a.From == b.From && a.To == b.To && a.Prop == b.Prop && math.Float64bits(a.W) == math.Float64bits(b.W)
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for v := range graph.NID(in.NumNodes()) {
		if got, want := in2.OutEdges(v), in.OutEdges(v); !slices.EqualFunc(got, want, sameEdge) {
			t.Errorf("OutEdges(%d) changed: restored %v, built %v", v, got, want)
		}
	}
	if got, want := in2.Raw().Social, in.Raw().Social; !slices.EqualFunc(got, want, sameSocial) {
		t.Errorf("social edges changed: restored %v, built %v", got, want)
	}
	m, m2 := in.Matrix(), in2.Matrix()
	n, rowPtr, col, val := m.Raw()
	n2, rowPtr2, col2, val2 := m2.Raw()
	if n2 != n || !slices.Equal(rowPtr2, rowPtr) || !slices.Equal(col2, col) || !slices.EqualFunc(val2, val, sameBits) {
		t.Errorf("matrix changed: restored %d×%d with %d entries, built %d×%d with %d", n2, n2, len(val2), n, n, len(val))
	}
	if !slices.EqualFunc(m2.ColMax(), m.ColMax(), sameBits) {
		t.Error("matrix ColMax changed")
	}
	if !sameBits(m2.RowSumMax(), m.RowSumMax()) {
		t.Errorf("matrix RowSumMax changed: restored %v, built %v", m2.RowSumMax(), m.RowSumMax())
	}
	return in2
}

func TestReadRejectsCorruptSnapshots(t *testing.T) {
	in, ix := build(t, handSpec(), text.Analyzer{Lang: text.English})
	var buf bytes.Buffer
	if err := Write(&buf, in, ix); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("X3SNAP"), good[6:]...),
		"bad version": func() []byte {
			b := bytes.Clone(good)
			b[6], b[7] = 0xff, 0xff
			return b
		}(),
		"truncated header": good[:8],
		"truncated body":   good[:len(good)/2],
	}
	for name, data := range cases {
		if _, _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: Read accepted a corrupt snapshot", name)
		}
	}

	// Flipping a count byte deep in the body must yield an error, not a
	// panic or a silently wrong instance.
	for i := 10; i < len(good); i += 97 {
		b := bytes.Clone(good)
		b[i] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("byte %d: Read panicked: %v", i, r)
				}
			}()
			in2, ix2, err := Read(bytes.NewReader(b))
			if err == nil && (in2 == nil || ix2 == nil) {
				t.Errorf("byte %d: nil result without error", i)
			}
		}()
	}
}
