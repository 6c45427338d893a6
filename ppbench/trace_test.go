package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100 * ms},
		// Two overlapping children covering 10..50 count once: 40 ms.
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 50 * ms},
		// A disjoint child: 10 ms more.
		{ID: 4, Parent: 1, Name: "c", Start: 60 * ms, End: 70 * ms},
		// A grandchild counts against its parent only.
		{ID: 5, Parent: 4, Name: "d", Start: 62 * ms, End: 66 * ms},
		// A child running past its parent's end is clipped to the parent.
		{ID: 6, Name: "op2", Start: 200 * ms, End: 210 * ms},
		{ID: 7, Parent: 6, Name: "e", Start: 205 * ms, End: 230 * ms},
	}
	want := []time.Duration{50 * ms, 30 * ms, 20 * ms, 6 * ms, 4 * ms, 5 * ms, 25 * ms}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %s self time %v, want %v", spans[i].Name, got, want[i])
		}
	}
}

func TestTracerOff(t *testing.T) {
	tr := newTracer(false)
	ran := false
	tr.do("x", 0, 1, func(id int) { ran = id == 0 })
	if !ran || len(tr.spans) != 0 {
		t.Fatalf("an off tracer recorded %d spans", len(tr.spans))
	}
	tr = newTracer(true)
	tr.do("x", 0, 1, func(id int) { tr.do("y", id, 1, func(int) {}) })
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[0].End < tr.spans[1].End {
		t.Fatalf("spans %+v", tr.spans)
	}
}
