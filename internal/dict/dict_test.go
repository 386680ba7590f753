package dict

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func TestInternAssignsDenseIDs(t *testing.T) {
	d := New()
	a := d.Intern("a")
	b := d.Intern("b")
	c := d.Intern("c")
	if a != 0 || b != 1 || c != 2 {
		t.Fatalf("expected dense ids 0,1,2, got %d,%d,%d", a, b, c)
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
}

func TestInternIsIdempotent(t *testing.T) {
	d := New()
	first := d.Intern("x")
	second := d.Intern("x")
	if first != second {
		t.Fatalf("re-interning returned %d, want %d", second, first)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
}

func TestLookupMissing(t *testing.T) {
	d := New()
	d.Intern("present")
	if _, ok := d.Lookup("absent"); ok {
		t.Fatal("Lookup returned ok for a string that was never interned")
	}
	if d.Has("absent") {
		t.Fatal("Has returned true for a string that was never interned")
	}
	if !d.Has("present") {
		t.Fatal("Has returned false for an interned string")
	}
}

func TestStringRoundTrip(t *testing.T) {
	d := New()
	inputs := []string{"", "a", "université", "M.S.", "http://example.org/x"}
	for _, s := range inputs {
		id := d.Intern(s)
		if got := d.String(id); got != s {
			t.Fatalf("String(Intern(%q)) = %q", s, got)
		}
	}
}

func TestStringPanicsOnUnknownID(t *testing.T) {
	d := New()
	defer func() {
		if recover() == nil {
			t.Fatal("String on an unknown ID did not panic")
		}
	}()
	d.String(42)
}

func TestStringsSliceOrder(t *testing.T) {
	d := New()
	want := []string{"z", "y", "x"}
	for _, s := range want {
		d.Intern(s)
	}
	if d.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d", d.Len(), len(want))
	}
	for i := range want {
		if got := d.String(ID(i)); got != want[i] {
			t.Fatalf("String(%d) = %q, want %q", i, got, want[i])
		}
	}
}

// Property: for any sequence of strings, interning is a bijection between
// the set of distinct strings and [0, Len).
func TestQuickRoundTrip(t *testing.T) {
	f := func(inputs []string) bool {
		d := New()
		seen := make(map[string]ID)
		for _, s := range inputs {
			id := d.Intern(s)
			if prev, ok := seen[s]; ok && prev != id {
				return false
			}
			seen[s] = id
			if d.String(id) != s {
				return false
			}
		}
		return d.Len() == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIntern(b *testing.B) {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	d := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Intern(keys[i%len(keys)])
	}
}

// arenaOf flattens strings into the FromArena input form.
func arenaOf(strs []string) (arena []byte, offs []int64, perm []int32) {
	offs = make([]int64, 1, len(strs)+1)
	for _, s := range strs {
		arena = append(arena, s...)
		offs = append(offs, int64(len(arena)))
	}
	perm = make([]int32, len(strs))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(i, j int) bool { return strs[perm[i]] < strs[perm[j]] })
	return arena, offs, perm
}

func TestFromArenaLookups(t *testing.T) {
	strs := []string{"urn:b", "urn:a", "", "kw:zeta", "kw:alpha"}
	arena, offs, perm := arenaOf(strs)
	d, err := FromArena(arena, offs, perm)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != len(strs) {
		t.Fatalf("Len() = %d, want %d", d.Len(), len(strs))
	}
	for i, s := range strs {
		if got := d.String(ID(i)); got != s {
			t.Errorf("String(%d) = %q, want %q", i, got, s)
		}
		id, ok := d.Lookup(s)
		if !ok || id != ID(i) {
			t.Errorf("Lookup(%q) = %d/%v, want %d", s, id, ok, i)
		}
		if !d.Has(s) {
			t.Errorf("Has(%q) = false", s)
		}
	}
	if _, ok := d.Lookup("urn:missing"); ok {
		t.Error("Lookup found a string that was never interned")
	}
}

// TestFromArenaOverflowIntern checks the post-freeze overflow layer: new
// strings intern into fresh ids, existing ones resolve to the base.
func TestFromArenaOverflowIntern(t *testing.T) {
	arena, offs, perm := arenaOf([]string{"a", "b"})
	d, err := FromArena(arena, offs, perm)
	if err != nil {
		t.Fatal(err)
	}
	if id := d.Intern("a"); id != 0 {
		t.Fatalf("Intern(existing) = %d, want 0", id)
	}
	id := d.Intern("c")
	if id != 2 {
		t.Fatalf("Intern(new) = %d, want 2", id)
	}
	if again := d.Intern("c"); again != id {
		t.Fatalf("re-Intern = %d, want %d", again, id)
	}
	if got := d.String(id); got != "c" {
		t.Fatalf("String(%d) = %q", id, got)
	}
	if got, ok := d.Lookup("c"); !ok || got != id {
		t.Fatalf("Lookup(c) = %d/%v", got, ok)
	}
	if d.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", d.Len())
	}
}

func TestFromArenaRejectsBadStructure(t *testing.T) {
	arena, offs, perm := arenaOf([]string{"a", "b"})
	if _, err := FromArena(arena, []int64{0, 1}, perm); err == nil {
		t.Error("offsets not spanning the arena accepted")
	}
	if _, err := FromArena(arena, []int64{0, 2, 1, int64(len(arena))}, []int32{0, 1, 2}); err == nil {
		t.Error("decreasing offsets accepted")
	}
	if _, err := FromArena(arena, offs, []int32{0}); err == nil {
		t.Error("short permutation accepted")
	}
	if _, err := FromArena(arena, offs, []int32{0, 9}); err == nil {
		t.Error("out-of-range permutation accepted")
	}
	if _, err := FromArena(arena, offs, []int32{1, 0}); err == nil {
		t.Error("descending permutation accepted")
	}
	if _, err := FromArena(arena, offs, []int32{0, 0}); err == nil {
		t.Error("permutation repeating an entry accepted")
	}
	dup, dupOffs, dupPerm := arenaOf([]string{"a", "a"})
	if _, err := FromArena(dup, dupOffs, dupPerm); err == nil {
		t.Error("duplicate strings accepted")
	}
}
