// Package faultnet injects transport faults for chaos testing: a
// fault-injecting http.RoundTripper for in-process suites and a TCP
// listener proxy for multi-process topologies. Fault schedules are
// scripted per endpoint (host/path matching with skip/limit counters),
// so a test can say "kill the postings fetches of worker 2 starting at
// its 7th request" and assert the recovered answer byte-identical.
//
// The injected corruption faults (Truncate, Flip) touch only the body
// bytes: they model a payload corrupted in transit, which the receiver
// must detect (the dshard wire's records carry their own CRCs), not a
// forged checksum.
package faultnet

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Action is what a matched rule does to the exchange.
type Action int

const (
	// Latency delays the request by the rule's Latency, then passes it
	// through.
	Latency Action = iota
	// Stall holds the request until its context is cancelled (the
	// client's timeout or a hedge/failover cancellation) and returns the
	// context's error — a worker that accepted the connection and went
	// silent.
	Stall
	// Reset fails the exchange with a connection-reset error without
	// reaching the target — a worker whose process died.
	Reset
	// Truncate passes the request through and cuts the response body
	// short — a connection dropped mid-reply.
	Truncate
	// Flip passes the request through and flips one random bit of the
	// response body — corruption in transit the receiver must catch.
	Flip
)

func (a Action) String() string {
	switch a {
	case Latency:
		return "latency"
	case Stall:
		return "stall"
	case Reset:
		return "reset"
	case Truncate:
		return "truncate"
	case Flip:
		return "flip"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Rule is one scripted fault: which requests it matches and what it does
// to them. Matching is by substring on the URL host and prefix on the
// path (empty matches anything); After skips the first After matching
// requests (so "fail round 7" is After: 6 on the round endpoint), Count
// bounds how many requests the rule fires on (0 = unlimited).
type Rule struct {
	Host    string
	Path    string
	After   int
	Count   int
	Action  Action
	Latency time.Duration

	matched int
	applied int
}

func (r *Rule) matches(req *http.Request) bool {
	if r.Host != "" && !strings.Contains(req.URL.Host, r.Host) {
		return false
	}
	if r.Path != "" && !strings.HasPrefix(req.URL.Path, r.Path) {
		return false
	}
	return true
}

// Transport is a fault-injecting http.RoundTripper: every request is
// checked against the rules in order and the first firing rule's action
// is applied. Safe for concurrent use; the fault decision runs under the
// lock, the fault itself (sleeps, the inner round trip) outside it.
type Transport struct {
	inner http.RoundTripper

	mu    sync.Mutex
	rng   *rand.Rand
	rules []*Rule
}

// NewTransport wraps inner (nil picks http.DefaultTransport) with a
// deterministic fault injector: the same seed and request sequence
// reproduce the same faults.
func NewTransport(inner http.RoundTripper, seed uint64) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{
		inner: inner,
		rng:   rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
	}
}

// Add appends a rule to the schedule and returns it (counters are read
// back through Applied).
func (t *Transport) Add(r *Rule) *Rule {
	t.mu.Lock()
	t.rules = append(t.rules, r)
	t.mu.Unlock()
	return r
}

// Applied reports how many requests a rule has fired on.
func (t *Transport) Applied(r *Rule) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return r.applied
}

// decide finds the first rule firing on req and, for corruption faults,
// pre-draws the randomness — all under the lock, so concurrent requests
// see a consistent schedule.
func (t *Transport) decide(req *http.Request) (rule *Rule, draw uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.rules {
		if !r.matches(req) {
			continue
		}
		r.matched++
		if r.matched <= r.After {
			continue
		}
		if r.Count > 0 && r.applied >= r.Count {
			continue
		}
		r.applied++
		return r, t.rng.Uint64()
	}
	return nil, 0
}

// errReset mimics a peer resetting the connection.
var errReset = &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	rule, draw := t.decide(req)
	if rule == nil {
		return t.inner.RoundTrip(req)
	}
	switch rule.Action {
	case Latency:
		select {
		case <-time.After(rule.Latency):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		return t.inner.RoundTrip(req)
	case Stall:
		<-req.Context().Done()
		return nil, req.Context().Err()
	case Reset:
		return nil, errReset
	case Truncate, Flip:
		resp, err := t.inner.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if len(body) > 0 {
			if rule.Action == Truncate {
				body = body[:int(draw%uint64(len(body)))]
			} else {
				bit := draw % uint64(len(body)*8)
				body[bit/8] ^= 1 << (bit % 8)
			}
		}
		resp.Body = io.NopCloser(strings.NewReader(string(body)))
		resp.ContentLength = int64(len(body))
		resp.Header.Set("Content-Length", fmt.Sprint(len(body)))
		return resp, nil
	default:
		return t.inner.RoundTrip(req)
	}
}
