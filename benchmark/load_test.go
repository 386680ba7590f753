package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// The closed loop plays every request of the list exactly once, and a cap
// that cuts the list short shows in unplayed instead of passing silently.
func TestLoadReplaysTheListOnceAndCountsACut(t *testing.T) {
	var (
		mu    sync.Mutex
		seen  = map[string]int{}
		delay time.Duration
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		seen[string(body)]++
		mu.Unlock()
		time.Sleep(delay)
		_, _ = io.WriteString(w, `{"results":[],"exact":true}`)
	}))
	defer srv.Close()

	pool := make([]request, 24)
	for i := range pool {
		pool[i] = request{Seeker: "u", Keywords: []string{"k"}, K: i + 1}
		pool[i].marshal()
	}
	// Units of three requests, as a session mix has units of eight.
	var units []unit
	for i := 0; i < len(pool); i += 3 {
		units = append(units, pool[i:i+3])
	}

	res := runLoad(context.Background(), srv.URL, units, 2, time.Minute, false)
	if len(res.samples) != len(pool) || res.unplayed != 0 {
		t.Fatalf("whole list: %d samples, %d unplayed; want %d, 0", len(res.samples), res.unplayed, len(pool))
	}
	for i := range pool {
		if seen[string(pool[i].Body)] != 1 {
			t.Fatalf("request %d was sent %d times", i, seen[string(pool[i].Body)])
		}
	}
	for i := range res.samples {
		if s := &res.samples[i]; s.failed || s.outcome != outCold {
			t.Fatalf("sample %d: failed=%v outcome=%q", i, s.failed, s.outcome)
		}
	}

	delay = 20 * time.Millisecond
	res = runLoad(context.Background(), srv.URL, units, 2, 30*time.Millisecond, false)
	if res.unplayed == 0 || len(res.samples)+res.unplayed != len(pool) {
		t.Fatalf("cut list: %d samples + %d unplayed, want a cut and %d in all", len(res.samples), res.unplayed, len(pool))
	}
}
