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

// TestMappingLifetime: the pages outlive the file's name, and the one
// owner releases them exactly once.
func TestMappingLifetime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte("one owner"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Unlinking must not invalidate the mapping: the inode stays pinned.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if string(m.Data()) != "one owner" {
		t.Error("data unreadable after unlink")
	}
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}
	if m.Data() != nil {
		t.Error("released mapping still hands out its bytes")
	}
	// A second Release is a programming error.
	defer func() {
		if recover() == nil {
			t.Error("second Release did not panic")
		}
	}()
	m.Release()
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
