package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"s3/internal/bench"
	"s3/internal/graph"
)

// request is one POST /search of a query list.
type request struct {
	// Class is the paper's qset band the keywords were drawn from.
	Class    string
	Seeker   string
	Keywords []string
	K        int
	// Repeat marks a session's exact repeat of its second request.
	Repeat bool
	// Body is the marshalled request, built once so that the timed loop
	// does no encoding.
	Body []byte
}

// unit is what one client takes from the shared cursor at a time: a
// single request, or the requests of one session played in order.
type unit []request

// classes are the query bands every list mixes (§5.1's qset(f,l,k)), with
// their shares. k alternates 5/10 inside each class.
var classes = []struct {
	name  string
	id    bench.WorkloadID
	share float64
}{
	{"common1", bench.WorkloadID{Freq: bench.Common, L: 1}, 0.6},
	{"rare1", bench.WorkloadID{Freq: bench.Rare, L: 1}, 0.2},
	{"common3", bench.WorkloadID{Freq: bench.Common, L: 3}, 0.2},
}

// Session mix: each session is one seeker issuing sessionFresh distinct
// keyword sets plus an exact repeat of its second request, and with
// probability revisitProb the seeker is one of the previous revisitWindow
// sessions' seekers.
const (
	sessionFresh  = 7
	revisitProb   = 0.3
	revisitWindow = 32
)

func (r *request) marshal() {
	b, err := json.Marshal(struct {
		Seeker   string   `json:"seeker"`
		Keywords []string `json:"keywords"`
		K        int      `json:"k"`
	}{r.Seeker, r.Keywords, r.K})
	if err != nil {
		panic(err) // strings and an int always marshal
	}
	r.Body = b
}

// buildPool draws n requests in the class shares above and shuffles them.
// It is a pure function of (instance, n, seed).
func buildPool(in *graph.Instance, n int, seed int64) ([]request, error) {
	var pool []request
	for ci, c := range classes {
		per := int(float64(n)*c.share/2) + 1
		for ki, k := range []int{5, 10} {
			id := c.id
			id.K = k
			w, err := bench.BuildWorkload(in, id, per, seed*16+int64(ci*2+ki))
			if err != nil {
				return nil, fmt.Errorf("query list, class %s: %w", c.name, err)
			}
			for _, q := range w.Queries {
				pool = append(pool, request{Class: c.name, Seeker: in.URIOf(q.Seeker), Keywords: q.Keywords, K: k})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	pool = pool[:n]
	for i := range pool {
		pool[i].marshal()
	}
	return pool, nil
}

// plainList makes every request of the pool its own unit.
func plainList(pool []request) []unit {
	units := make([]unit, len(pool))
	for i := range pool {
		units[i] = pool[i : i+1]
	}
	return units
}

// timedList is the workload's fixed list: n requests, one unit each, or in
// the session mixes n/(sessionFresh+1) whole sessions. It is a pure
// function of (instance, n, seed).
func (w *workload) timedList(in *graph.Instance, n int, seed int64) ([]unit, error) {
	if !w.sessions {
		pool, err := buildPool(in, n, seed)
		return plainList(pool), err
	}
	sessions := n / (sessionFresh + 1)
	// A session skips keyword sets it has already used, so draw twice what
	// the sessions keep.
	pool, err := buildPool(in, 2*sessions*sessionFresh, seed)
	if err != nil {
		return nil, err
	}
	units := sessionList(pool, seed)
	if len(units) < sessions {
		return nil, fmt.Errorf("query list: %d requests made only %d of %d sessions", len(pool), len(units), sessions)
	}
	return units[:sessions], nil
}

// sessionList groups the pool into sessions (see the constants above).
// Within a session the fresh keyword sets are pairwise distinct, so the
// only result-cache hit a session causes by itself is its repeat.
func sessionList(pool []request, seed int64) []unit {
	rng := rand.New(rand.NewSource(seed ^ 0x5e5510))
	var (
		units   []unit
		seekers []string // seeker of every session so far
		next    int
	)
	for {
		session := make(unit, 0, sessionFresh+1)
		seen := make(map[string]bool, sessionFresh)
		var seeker string
		if next < len(pool) {
			seeker = pool[next].Seeker
		}
		if n := len(seekers); n > 0 && rng.Float64() < revisitProb {
			seeker = seekers[n-1-rng.Intn(min(n, revisitWindow))]
		}
		for len(session) < sessionFresh && next < len(pool) {
			r := pool[next]
			next++
			key := fmt.Sprint(r.K, " ", strings.Join(r.Keywords, "\x00"))
			if seen[key] {
				continue
			}
			seen[key] = true
			r.Seeker = seeker
			r.marshal()
			session = append(session, r)
		}
		if len(session) < sessionFresh {
			return units // pool exhausted: drop the partial session
		}
		rep := session[1]
		rep.Repeat = true
		session = append(session, rep)
		units = append(units, session)
		seekers = append(seekers, seeker)
	}
}
