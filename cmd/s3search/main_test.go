package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"s3/internal/core"
	"s3/internal/datagen"
	"s3/internal/dict"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/score"
	"s3/internal/snap"
	"s3/internal/text"
)

// smallOptions shrinks the generated dataset so CLI tests stay fast.
func smallOptions() options {
	return options{dataset: "twitter", query: "#h1", k: 3, gamma: 1.5, eta: 0.8, baseline: true}
}

// genSmall builds a reduced twitter instance and saves both a spec and a
// snapshot next to it.
func genSmall(t *testing.T) (specPath, snapPath string, in *graph.Instance, ix *index.Index) {
	t.Helper()
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets, o.Seed = 50, 200, 5
	spec, _ := datagen.Twitter(o)
	var err error
	in, err = graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		t.Fatal(err)
	}
	ix = index.Build(in)

	dir := t.TempDir()
	specPath = filepath.Join(dir, "i1.spec")
	f, err := os.Create(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Encode(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	snapPath = filepath.Join(dir, "i1.snap")
	f, err = os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Write(f, in, ix); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return specPath, snapPath, in, ix
}

func TestRunFromSpecAndSnapshotAgree(t *testing.T) {
	specPath, snapPath, in, ix := genSmall(t)

	// Find a query with results so the transcripts are non-trivial.
	eng := core.NewEngine(in, ix)
	seeker, kw := "", ""
	for _, u := range in.Users() {
		for _, cand := range []string{"#h1", "#h2", "#h3", "#h5"} {
			rs, _, err := eng.Search(u, []string{cand}, core.Options{K: 3, Params: score.Params{Gamma: 1.5, Eta: 0.8}})
			if err == nil && len(rs) > 0 {
				seeker, kw = in.URIOf(u), cand
				break
			}
		}
		if seeker != "" {
			break
		}
	}
	if seeker == "" {
		t.Fatal("no usable query on the generated instance")
	}

	o := smallOptions()
	o.seeker, o.query = seeker, kw

	var fromSpec, fromSnap strings.Builder
	oSpec := o
	oSpec.specPath = specPath
	if err := run(oSpec, &fromSpec); err != nil {
		t.Fatalf("run from spec: %v", err)
	}
	oSnap := o
	oSnap.snapPath = snapPath
	if err := run(oSnap, &fromSnap); err != nil {
		t.Fatalf("run from snapshot: %v", err)
	}

	// Timings differ between runs; compare the transcripts line-wise with
	// the timing fields stripped.
	if got, want := stripTimings(fromSnap.String()), stripTimings(fromSpec.String()); got != want {
		t.Errorf("snapshot-backed run diverged from spec-backed run:\nspec:\n%s\nsnapshot:\n%s", want, got)
	}
	if !strings.Contains(fromSnap.String(), "S3k answer") {
		t.Error("transcript missing the S3k answer section")
	}
	if !strings.Contains(fromSnap.String(), "TopkS baseline") {
		t.Error("transcript missing the baseline section")
	}
}

func TestRunErrors(t *testing.T) {
	o := smallOptions()
	o.dataset = "friendster"
	if err := run(o, &strings.Builder{}); err == nil {
		t.Error("unknown dataset accepted")
	}
	o = smallOptions()
	o.specPath, o.snapPath = "a", "b"
	if err := run(o, &strings.Builder{}); err == nil {
		t.Error("conflicting sources accepted")
	}
	o = smallOptions()
	o.snapPath = filepath.Join(t.TempDir(), "missing.snap")
	if err := run(o, &strings.Builder{}); err == nil {
		t.Error("missing snapshot accepted")
	}
}

// TestResolveKeywordsTakesURIsVerbatim: the baseline resolves a keyword
// as the S3k search does, so a URI the vocabulary holds is that term, not
// its first stem ("http").
func TestResolveKeywordsTakesURIsVerbatim(t *testing.T) {
	const coffee = "http://ex.org/Coffee"
	b := graph.NewBuilder(text.Analyzer{Lang: text.English})
	if err := b.AddUser("u0"); err != nil {
		t.Fatal(err)
	}
	b.AddOntologyTriple("http://ex.org/Espresso", "rdfs:subClassOf", coffee)
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	id, ok := in.Dict().Lookup(coffee)
	if !ok {
		t.Fatalf("%s not in the vocabulary", coffee)
	}
	if got := resolveKeywords(in, []string{coffee, "unheard-of"}); !slices.Equal(got, []dict.ID{id}) {
		t.Fatalf("resolveKeywords = %v, want [%d]", got, id)
	}
}

// stripTimings removes elapsed-time and iteration-count text, which is
// nondeterministic across runs.
func stripTimings(s string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if i := strings.Index(line, " — "); i >= 0 {
			line = line[:i]
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}
