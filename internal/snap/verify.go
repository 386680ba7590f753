// Deferred integrity verification: checksum-on-fault for large mappings.
//
// The aligned container validates its header and section table on
// every open (cheap: a few KB), but the per-section payload CRC-32C pass
// is memory-bandwidth bound over the whole file — on a large mapping it
// IS the cold-start cost. VerifyLazy moves that pass off the open path
// into a background collector: the open returns as soon as the tables
// parse, the first searches overlap the verification pass, and a
// corruption verdict surfaces through VerifyErr/WaitVerify (a worker
// flips unhealthy and refuses new sessions). VerifyEager keeps the
// original synchronous pass and remains the default for every
// non-worker open path.
package snap

import (
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"
)

// VerifyMode selects when aligned-section payloads are checksummed.
type VerifyMode int

const (
	// VerifyEager checksums every kept section payload during the open
	// (the original behaviour): corruption fails the open itself.
	VerifyEager VerifyMode = iota
	// VerifyLazy defers the payload pass to a background collector,
	// cutting time-to-first-search on large mappings. Header and section
	// tables are still validated at open.
	VerifyLazy
)

// DeferredVerify collects integrity checks deferred off an open path.
// Checks run in background goroutines; the first failure sticks.
type DeferredVerify struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

// spawn runs one deferred check in the background.
func (d *DeferredVerify) spawn(f func() error) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		if err := f(); err != nil {
			d.mu.Lock()
			if d.err == nil {
				d.err = err
			}
			d.mu.Unlock()
		}
	}()
}

// check runs one integrity pass where the open's VerifyMode wants it:
// inline on a nil collector (VerifyEager — the error fails the open), in
// the background otherwise.
func (d *DeferredVerify) check(f func() error) error {
	if d == nil {
		return f()
	}
	d.spawn(f)
	return nil
}

// Wait blocks until every deferred check has completed and returns the
// first failure (nil when the file verified clean).
func (d *DeferredVerify) Wait() error {
	d.wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// Err reports, without blocking, any failure found so far.
func (d *DeferredVerify) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// verifyAlignedSpans checksums the given section payloads of data in
// parallel: the pass is memory-bandwidth bound, so spreading it over
// cores directly shortens whoever is waiting on it (the open under
// VerifyEager, the background collector under VerifyLazy).
func verifyAlignedSpans(data []byte, spans []secSpan, what string) error {
	var bad atomic.Int32
	bad.Store(-1)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > len(spans) {
		workers = len(spans)
	}
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(spans) {
					return
				}
				sp := spans[i]
				if uint64(crc32.Checksum(data[sp.off:sp.off+sp.len], castagnoli)) != sp.sum {
					bad.Store(int32(sp.id))
				}
			}
		}()
	}
	wg.Wait()
	if id := bad.Load(); id >= 0 {
		return fmt.Errorf("snap: section %d of %s fails its checksum", id, what)
	}
	return nil
}
