package s3

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
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
	writeSnapshotFile(t, inst, path)
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

// TestRDFExportConcurrentWithSearch runs searches on several goroutines
// while the lazy RDF export is built and queried, on a built and on a
// mapped instance. The export interns its vocabulary into the instance
// dictionary that searches read, so under -race this checks that the
// two may overlap.
func TestRDFExportConcurrentWithSearch(t *testing.T) {
	built := buildFigure1(t)
	path := filepath.Join(t.TempDir(), "i.snap")
	writeSnapshotFile(t, built, path)
	mapped, err := OpenSnapshot(path, LoadMmap)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	for name, inst := range map[string]*Instance{"built": built, "mapped": mapped} {
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for n := 0; n < 20; n++ {
					if _, err := inst.Search("u1", []string{"degree"}, WithK(3)); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := inst.QueryRDF("?u rdf:type S3:user"); err != nil {
				errs <- err
				return
			}
			if err := inst.WriteRDF(io.Discard); err != nil {
				errs <- err
			}
		}()
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestWriteSnapshotIgnoresRDFExport checks that the RDF export, which
// interns its vocabulary into the instance dictionary, leaves the
// snapshot bytes alone: a built instance and a loaded one (read, copied
// or mapped) write the same bytes before and after QueryRDF, and a
// loaded one writes its file's bytes exactly.
func TestWriteSnapshotIgnoresRDFExport(t *testing.T) {
	snapshot := func(i *Instance) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := i.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	query := func(i *Instance) {
		t.Helper()
		if _, err := i.QueryRDF("?c S3:commentsOn ?d"); err != nil {
			t.Fatal(err)
		}
	}
	built := buildFigure1(t)
	want := snapshot(built)
	query(built)
	if got := snapshot(built); !bytes.Equal(got, want) {
		t.Fatalf("built: WriteSnapshot after QueryRDF is %d B, before it %d B", len(got), len(want))
	}
	path := filepath.Join(t.TempDir(), "i.snap")
	writeSnapshotFile(t, built, path)

	read, err := ReadSnapshot(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	loaded := map[string]*Instance{"read": read}
	for _, mode := range []LoadMode{LoadCopy, LoadMmap} {
		inst, err := OpenSnapshot(path, mode)
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Close()
		loaded[fmt.Sprintf("open mode %d", mode)] = inst
	}
	for name, inst := range loaded {
		if got := snapshot(inst); !bytes.Equal(got, want) {
			t.Errorf("%s: WriteSnapshot is %d B, the file %d B", name, len(got), len(want))
		}
		query(inst)
		if got := snapshot(inst); !bytes.Equal(got, want) {
			t.Errorf("%s: WriteSnapshot after QueryRDF is %d B, the file %d B", name, len(got), len(want))
		}
	}
}

// writeSnapshotFile writes inst's snapshot to path.
func writeSnapshotFile(t *testing.T, inst *Instance, path string) {
	t.Helper()
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
}
