package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Start and End are
// offsets from the recorder's creation; Parent is 0 for a root span.
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// the untraced mode: every method is a no-op, so call sites need no
// branches.
type Recorder struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an empty recorder.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Active is an open span; End closes it. The zero Active (from a nil
// recorder) is inert.
type Active struct {
	r     *Recorder
	span  Span
	begin time.Time
}

// NewReq allocates a request id that groups the spans of one request.
func (r *Recorder) NewReq() int64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

// Start opens a span named name under parent (0 for a root) in request
// req.
func (r *Recorder) Start(name string, parent, req int64) Active {
	if r == nil {
		return Active{}
	}
	now := time.Now()
	return Active{r: r, begin: now, span: Span{
		ID: r.next.Add(1), Parent: parent, Req: req, Name: name, Start: now.Sub(r.t0),
	}}
}

// ID is the span's id, for children to name as parent.
func (a *Active) ID() int64 { return a.span.ID }

// End closes the span and returns its duration (0 when untraced).
func (a *Active) End() time.Duration {
	if a.r == nil {
		return 0
	}
	a.span.End = time.Since(a.r.t0)
	a.r.mu.Lock()
	a.r.spans = append(a.r.spans, a.span)
	a.r.mu.Unlock()
	return a.span.Dur()
}

// Spans returns a copy of every closed span.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children are counted once).
func SelfTimes(spans []Span) map[int64]time.Duration {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		cur := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.Dur() - covered
	}
	return self
}

// WriteJSONLines writes one span per line to path.
func WriteJSONLines(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
