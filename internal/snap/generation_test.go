package snap

import (
	"sync"
	"sync/atomic"
	"testing"
)

// servedValue records how it is used: readers count the searches reading
// it, closes how often it was closed, and early a Close that came while a
// reader was still inside.
type servedValue struct {
	readers, closes, early atomic.Int32
}

func (v *servedValue) Close() error {
	if v.readers.Load() != 0 {
		v.early.Add(1)
	}
	v.closes.Add(1)
	return nil
}

// TestGenerationSequence: versions count Installs from 1, and a retired
// value closes when its last reader releases it, not at the swap.
func TestGenerationSequence(t *testing.T) {
	var cur Current[*servedValue]
	if cur.Acquire() != nil || cur.Peek() != nil {
		t.Fatal("an empty Current hands out a generation")
	}
	first, second := &servedValue{}, &servedValue{}
	cur.Install(first)
	g := cur.Acquire()
	if g.Value != first || g.Version != 1 {
		t.Fatalf("first generation: value %p version %d", g.Value, g.Version)
	}
	cur.Install(second)
	if v := cur.Peek().Version; v != 2 {
		t.Errorf("second Install is version %d, want 2", v)
	}
	if n := first.closes.Load(); n != 0 {
		t.Fatalf("retired value closed under a reader (%d closes)", n)
	}
	g.Release()
	if n := first.closes.Load(); n != 1 {
		t.Errorf("retired value closed %d times after its last Release, want 1", n)
	}
	if n := second.closes.Load(); n != 0 {
		t.Errorf("installed value closed %d times", n)
	}
}

// TestGenerationRacingReaders installs values while readers acquire and
// release them: no reader ever sees a closed value, and every retired
// value closes exactly once, after its last reader left.
func TestGenerationRacingReaders(t *testing.T) {
	const installs, readers = 200, 4
	var cur Current[*servedValue]
	values := make([]*servedValue, installs)
	for i := range values {
		values[i] = &servedValue{}
	}
	cur.Install(values[0])
	var stop atomic.Bool
	var bad atomic.Int32
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				g := cur.Acquire()
				v := g.Value
				v.readers.Add(1)
				if v.closes.Load() != 0 {
					bad.Add(1)
				}
				v.readers.Add(-1)
				g.Release()
			}
		}()
	}
	for _, v := range values[1:] {
		cur.Install(v)
	}
	stop.Store(true)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Errorf("Acquire returned a closed value %d times", n)
	}
	if v := cur.Peek().Version; v != installs {
		t.Errorf("last generation is version %d, want %d", v, installs)
	}
	for i, v := range values {
		want := int32(1)
		if i == installs-1 {
			want = 0
		}
		if n := v.closes.Load(); n != want {
			t.Errorf("value %d closed %d times, want %d", i, n, want)
		}
		if n := v.early.Load(); n != 0 {
			t.Errorf("value %d closed while a reader was inside", i)
		}
	}
}
