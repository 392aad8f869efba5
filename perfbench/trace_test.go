package main

import (
	"testing"
	"time"
)

// TestSelfTimesAddUp pins that the self times of a span tree sum to the
// root's duration, including overlapping children (parallel calls) and a
// child that outlives its parent.
func TestSelfTimesAddUp(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "client", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "handler", Start: 10 * ms, End: 90 * ms},
		{ID: 3, Parent: 2, Name: "search", Start: 20 * ms, End: 60 * ms},
		{ID: 4, Parent: 2, Name: "search", Start: 40 * ms, End: 70 * ms}, // overlaps 3
		{ID: 5, Parent: 3, Name: "dp", Start: 25 * ms, End: 35 * ms},
	}
	self := SelfTimes(spans)
	want := map[int64]time.Duration{1: 20 * ms, 2: 30 * ms, 3: 30 * ms, 4: 30 * ms, 5: 10 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
	// The non-overlapping chain 1 > 2 > 3 > 5 partitions the root.
	chain := self[1] + self[2] + self[3] + self[5]
	covered := 10 * ms // the part of span 4 outside span 3
	if chain+covered != spans[0].Dur() {
		t.Errorf("self times sum to %v, root lasts %v", chain+covered, spans[0].Dur())
	}

	clipped := SelfTimes([]Span{
		{ID: 1, Name: "parent", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "child", Start: 5 * ms, End: 20 * ms},
	})
	if clipped[1] != 5*ms {
		t.Errorf("a child outliving its parent leaves self %v, want 5ms", clipped[1])
	}
}

// TestRecorderNesting records a real nested tree and checks that the self
// times of all spans add up to the root's duration exactly.
func TestRecorderNesting(t *testing.T) {
	rec := NewRecorder()
	req := rec.NewReq()
	root := rec.Start("root", 0, req)
	for i := 0; i < 3; i++ {
		child := rec.Start("child", root.ID(), req)
		grand := rec.Start("grandchild", child.ID(), req)
		time.Sleep(time.Millisecond)
		grand.End()
		child.End()
	}
	root.End()
	spans := rec.Spans()
	if len(spans) != 7 {
		t.Fatalf("%d spans, want 7", len(spans))
	}
	var sum, rootDur time.Duration
	for id, d := range SelfTimes(spans) {
		sum += d
		for _, s := range spans {
			if s.ID == id && s.Parent == 0 {
				rootDur = s.Dur()
			}
		}
	}
	if sum != rootDur {
		t.Errorf("self times sum to %v, root lasts %v", sum, rootDur)
	}
	for _, s := range spans {
		if s.Req != req {
			t.Errorf("span %s has request %d, want %d", s.Name, s.Req, req)
		}
	}
	var untraced *Recorder
	sp := untraced.Start("x", 0, untraced.NewReq())
	if sp.End() != 0 || untraced.Spans() != nil {
		t.Error("a nil recorder recorded")
	}
}
