package main

import (
	"bytes"
	"strings"
	"testing"

	"s3/internal/datagen"
	"s3/internal/graph"
	"s3/internal/text"
)

func testInstance(t *testing.T) *graph.Instance {
	t.Helper()
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets = 200, 800
	spec, _ := datagen.Twitter(o)
	in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestListIsAPureFunctionOfTheSeed(t *testing.T) {
	in := testInstance(t)
	build := func(seed int64) ([]byte, []byte) {
		pool, err := buildPool(in, 400, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(pool) != 400 {
			t.Fatalf("pool has %d requests, want 400", len(pool))
		}
		return listBytes(plainList(pool)), listBytes(sessionList(pool, seed))
	}
	plain1, sess1 := build(1)
	plain1b, sess1b := build(1)
	plain2, sess2 := build(2)
	if !bytes.Equal(plain1, plain1b) || !bytes.Equal(sess1, sess1b) {
		t.Error("the same seed gave different lists")
	}
	if bytes.Equal(plain1, plain2) || bytes.Equal(sess1, sess2) {
		t.Error("different seeds gave the same list")
	}
}

func TestPoolMixesTheClasses(t *testing.T) {
	pool, err := buildPool(testInstance(t), 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	ks := map[int]int{}
	for _, r := range pool {
		count[r.Class]++
		ks[r.K]++
		if want := map[string]int{"common1": 1, "rare1": 1, "common3": 3}[r.Class]; len(r.Keywords) != want {
			t.Fatalf("%s request has %d keywords", r.Class, len(r.Keywords))
		}
	}
	for class, share := range map[string]float64{"common1": 0.6, "rare1": 0.2, "common3": 0.2} {
		if got := float64(count[class]) / 1000; got < share-0.02 || got > share+0.02 {
			t.Errorf("class %s has share %.3f, want %.1f", class, got, share)
		}
	}
	if ks[5] < 450 || ks[10] < 450 || ks[5]+ks[10] != 1000 {
		t.Errorf("k does not alternate 5/10: %v", ks)
	}
}

// A session is one seeker: a first request (cold unless the seeker is a
// revisit), six more fresh keyword sets (warm) and an exact repeat of the
// second request (a result-cache hit).
func TestSessionStructure(t *testing.T) {
	pool, err := buildPool(testInstance(t), 4000, 5)
	if err != nil {
		t.Fatal(err)
	}
	sessions := sessionList(pool, 5)
	if len(sessions) < 500 {
		t.Fatalf("only %d sessions from 4000 requests", len(sessions))
	}
	revisits := 0
	var seekers []string
	for si, s := range sessions {
		if len(s) != sessionFresh+1 {
			t.Fatalf("session %d has %d requests", si, len(s))
		}
		distinct := map[string]bool{}
		for i, r := range s {
			if r.Seeker != s[0].Seeker {
				t.Fatalf("session %d changes seeker at request %d", si, i)
			}
			if !bytes.Contains(r.Body, []byte(`"seeker":"`+r.Seeker+`"`)) {
				t.Fatalf("session %d request %d: body %s does not carry seeker %s", si, i, r.Body, r.Seeker)
			}
			if r.Repeat != (i == sessionFresh) {
				t.Fatalf("session %d request %d: Repeat = %v", si, i, r.Repeat)
			}
			if !r.Repeat {
				distinct[string(r.Body)] = true
			}
		}
		if len(distinct) != sessionFresh {
			t.Fatalf("session %d has %d distinct fresh requests, want %d", si, len(distinct), sessionFresh)
		}
		if !bytes.Equal(s[sessionFresh].Body, s[1].Body) {
			t.Fatalf("session %d: the repeat is not its second request", si)
		}
		recent := seekers[max(0, len(seekers)-revisitWindow):]
		if strings.Contains("\x00"+strings.Join(recent, "\x00")+"\x00", "\x00"+s[0].Seeker+"\x00") {
			revisits++
		}
		seekers = append(seekers, s[0].Seeker)
	}
	// Chance collisions with a recent seeker add a little to revisitProb.
	if share := float64(revisits) / float64(len(sessions)); share < revisitProb-0.06 || share > revisitProb+0.2 {
		t.Errorf("%.2f of sessions revisit a recent seeker, want about %.2f", share, revisitProb)
	}
}

// listBytes is the canonical serialisation of a list.
func listBytes(units []unit) []byte {
	var b []byte
	for _, u := range units {
		for _, r := range u {
			b = append(b, r.Body...)
			b = append(b, '\n')
		}
		b = append(b, '\n')
	}
	return b
}

// The timed list has a frozen length, so that every run covers the same
// multiset of queries: n requests, or n/8 whole sessions.
func TestTimedListHasTheFrozenLength(t *testing.T) {
	in := testInstance(t)
	for _, w := range workloads {
		units, err := w.timedList(in, 400, 7)
		if err != nil {
			t.Fatal(err)
		}
		requests := 0
		for _, u := range units {
			requests += len(u)
		}
		wantUnits := 400
		if w.sessions {
			wantUnits = 400 / (sessionFresh + 1)
		}
		if len(units) != wantUnits || requests != 400 {
			t.Errorf("%s: %d units, %d requests; want %d units, 400 requests", w.name, len(units), requests, wantUnits)
		}
		again, err := w.timedList(in, 400, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(listBytes(units), listBytes(again)) {
			t.Errorf("%s: the same seed gave different timed lists", w.name)
		}
	}
}
