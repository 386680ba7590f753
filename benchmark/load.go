package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// How the server produced an answer, read off the response's flags.
const (
	outCached = "cached"
	outWarm   = "warm"
	outCold   = "cold"
)

// reloadPause is how long the admin client rests between a /reload reply
// and the next /reload.
const reloadPause = 2 * time.Second

// sample is one finished POST /search.
type sample struct {
	req     *request
	ms      float64
	outcome string
	// results is the raw "results" value of the reply and exact its
	// "exact" flag, kept for the answer check.
	results json.RawMessage
	exact   bool
	// failed is set for a transport error or a non-200 status (a shed 429
	// included).
	failed bool
}

// loadResult is what one timed window produced.
type loadResult struct {
	samples  []sample
	elapsed  time.Duration
	reloadMS []float64
	// reloadsFailed counts /reload calls that did not return 200.
	reloadsFailed int
	// unplayed counts the requests the cap cut off; 0 when the whole list
	// was played.
	unplayed int
}

// latencies returns the window's successful latencies in ms, all of them
// and split by outcome.
func (l *loadResult) latencies() (all []float64, byOutcome map[string][]float64) {
	byOutcome = map[string][]float64{}
	for i := range l.samples {
		if s := &l.samples[i]; !s.failed {
			all = append(all, s.ms)
			byOutcome[s.outcome] = append(byOutcome[s.outcome], s.ms)
		}
	}
	return all, byOutcome
}

// searchReply is the part of the POST /search response the harness reads.
type searchReply struct {
	Results json.RawMessage `json:"results"`
	Exact   bool            `json:"exact"`
	Cached  bool            `json:"cached"`
	Warm    bool            `json:"warm"`
}

// newClient returns an HTTP client holding one keep-alive connection per
// closed-loop caller.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConns: conns + 1, MaxIdleConnsPerHost: conns + 1},
	}
}

// search sends one request and classifies the reply.
func search(ctx context.Context, c *http.Client, url string, r *request) sample {
	s := sample{req: r, failed: true}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/search", bytes.NewReader(r.Body))
	if err != nil {
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.ms = float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil || resp.StatusCode != http.StatusOK {
		return s
	}
	var reply searchReply
	if json.Unmarshal(body, &reply) != nil {
		return s
	}
	s.results, s.exact, s.failed = reply.Results, reply.Exact, false
	switch {
	case reply.Cached:
		s.outcome = outCached
	case reply.Warm:
		s.outcome = outWarm
	default:
		s.outcome = outCold
	}
	return s
}

// runLoad is the closed loop: `clients` callers each take the next unit
// from a shared cursor and play its requests in order, waiting for every
// reply, until the whole list has been played once. limit is a safety cap
// (0 = none): once it has passed no further unit is taken, and the
// requests left over are counted as unplayed. With reloads, one more caller
// POSTs /reload, waits for the reply, rests reloadPause, and repeats until
// the search callers are done; a reload still in flight then is abandoned
// and not counted.
func runLoad(ctx context.Context, url string, units []unit, clients int, limit time.Duration, reloads bool) loadResult {
	hc := newClient(clients)
	defer hc.CloseIdleConnections()
	var (
		res    loadResult
		cursor atomic.Int64
		mu     sync.Mutex
		wg     sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(limit)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for ctx.Err() == nil && (limit <= 0 || time.Now().Before(deadline)) {
				i := int(cursor.Add(1)) - 1
				if i >= len(units) {
					break
				}
				for j := range units[i] {
					mine = append(mine, search(ctx, hc, url, &units[i][j]))
				}
			}
			mu.Lock()
			res.samples = append(res.samples, mine...)
			mu.Unlock()
		}()
	}
	// The admin client's window closes with the search clients'.
	rctx, closeWindow := context.WithCancel(ctx)
	adminDone := make(chan struct{})
	go func() {
		defer close(adminDone)
		for reloads && rctx.Err() == nil {
			t0 := time.Now()
			req, err := http.NewRequestWithContext(rctx, http.MethodPost, url+"/reload", nil)
			if err != nil {
				return
			}
			resp, err := hc.Do(req)
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			if rctx.Err() != nil {
				return
			}
			if err != nil || resp.StatusCode != http.StatusOK {
				res.reloadsFailed++
			} else {
				res.reloadMS = append(res.reloadMS, float64(time.Since(t0).Nanoseconds())/1e6)
			}
			select {
			case <-rctx.Done():
			case <-time.After(reloadPause):
			}
		}
	}()
	wg.Wait()
	res.elapsed = time.Since(start)
	for i := int(cursor.Load()); i < len(units); i++ {
		res.unplayed += len(units[i])
	}
	closeWindow()
	<-adminDone
	return res
}
