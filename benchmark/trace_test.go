package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	r := &recorder{spans: []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 130}, // outlives the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 15, End: 20},
		{ID: 6, Name: "parent", Start: 200, End: 250}, // no children
	}}
	got := r.self("parent")
	want := []time.Duration{100 - 50 - 10, 50}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("self = %v, want %v", got, want)
	}
	if n := len(r.named("child")); n != 3 {
		t.Errorf("named(child) returned %d spans, want 3", n)
	}
}
