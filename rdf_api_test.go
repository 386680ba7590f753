package s3

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQueryRDF(t *testing.T) {
	inst := buildFigure1(t)

	// Who replied to whose document? (the §2.2 extensibility pattern)
	rows, err := inst.QueryRDF(
		"?c S3:commentsOn ?d",
		"?c S3:postedBy ?author",
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v, want 2 comment relationships", rows)
	}
	authors := map[string]bool{}
	for _, r := range rows {
		authors[r["author"]] = true
	}
	if !authors["u2"] || !authors["u3"] {
		t.Fatalf("authors = %v, want u2 and u3", authors)
	}

	// Class membership via the exported typing triples.
	rows, err = inst.QueryRDF("?u rdf:type S3:user")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("users = %d, want 5", len(rows))
	}

	if _, err := inst.QueryRDF(); err == nil {
		t.Fatal("expected error for empty query")
	}
	if _, err := inst.QueryRDF("too few"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestQueryRDFTagStructure(t *testing.T) {
	inst := buildFigure1(t)
	rows, err := inst.QueryRDF(
		"?a rdf:type S3:relatedTo",
		"?a S3:hasAuthor ?who",
		"?a S3:hasSubject ?frag",
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v, want the single tag", rows)
	}
	if rows[0]["who"] != "u4" || rows[0]["frag"] != "d0.5.1" {
		t.Fatalf("tag binding = %v", rows[0])
	}
}

func TestWriteRDF(t *testing.T) {
	inst := buildFigure1(t)
	var buf bytes.Buffer
	if err := inst.WriteRDF(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{
		"<d0.3> <S3:partOf> <d0>",
		"<d1> <repliesTo> <d0>",
		"<a> <S3:hasKeyword>",
		"<u1> <friendOf> <u0> 0.9",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("export missing %q in:\n%s", frag, out)
		}
	}
}

// TestWriteRDFSurvivesSnapshot checks that an instance loaded from a
// snapshot, copied or mapped, exports exactly the RDF the built instance
// does — tags included, whose descriptions a loaded instance keeps in its
// sorted tag table rather than the builder's map.
func TestWriteRDFSurvivesSnapshot(t *testing.T) {
	inst := buildFigure1(t)
	export := func(i *Instance) string {
		t.Helper()
		var buf bytes.Buffer
		if err := i.WriteRDF(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := export(inst)
	path := filepath.Join(t.TempDir(), "i.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []LoadMode{LoadCopy, LoadMmap} {
		loaded, err := OpenSnapshot(path, mode)
		if err != nil {
			t.Fatal(err)
		}
		if got := export(loaded); got != want {
			t.Errorf("mode %d: WriteRDF of the loaded instance (%d B) differs from the built one (%d B):\n%s", mode, len(got), len(want), got)
		}
		loaded.Close()
	}
}

func TestSearchContentOnlyFacade(t *testing.T) {
	inst := buildFigure1(t)
	// Without the seeker, ranking is purely structural/semantic.
	rs, err := inst.SearchContentOnly([]string{"university"}, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no content-only results")
	}
	// Every result still carries a document attribution and a closed
	// score interval.
	for _, r := range rs {
		if r.Document == "" || r.Lower != r.Upper {
			t.Fatalf("bad content-only result %+v", r)
		}
	}
}
