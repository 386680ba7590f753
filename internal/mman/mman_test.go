package mman

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestOpenReadsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	content := bytes.Repeat([]byte("s3 mapped bytes "), 1024)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Data(), content) {
		t.Error("mapped bytes differ from file content")
	}
	if m.Size() != int64(len(content)) {
		t.Errorf("Size() = %d, want %d", m.Size(), len(content))
	}
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestRefcountLifetime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte("refcounted"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	m.Retain()
	// Unlinking must not invalidate the mapping: the inode stays pinned.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}
	// One reference left: the data must still be readable.
	if string(m.Data()) != "refcounted" {
		t.Error("data unreadable after unlink with a live reference")
	}
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}
	// Over-releasing and reviving are programming errors.
	for name, f := range map[string]func(){
		"release after death": func() { m.Release() },
		"retain after death":  func() { m.Retain() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestOpenEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 0 || len(m.Data()) != 0 {
		t.Errorf("empty file mapped to %d bytes", m.Size())
	}
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}
}
