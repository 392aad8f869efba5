package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sdtw"
	"sdtw/internal/serve"
)

// corruptSearches rewrites every search reply's best hit with plant.
func corruptSearches(plant func(*serve.HitJSON)) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			var resp serve.SearchResponse
			if r.URL.Path == "/v1/search" && rec.Code == http.StatusOK && json.Unmarshal(body, &resp) == nil && len(resp.Hits) > 0 {
				plant(&resp.Hits[0])
				body, _ = json.Marshal(resp)
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(body)
		})
	}
}

// TestPlantedWrongAnswerIsCaught serves a small windowed index through
// the benchmark's HTTP path: untouched replies all match the brute-force
// reference, and a planted wrong neighbour or distance counts as a
// failed operation.
func TestPlantedWrongAnswerIsCaught(t *testing.T) {
	in := genWindow(7, 300, 32, 8, 0)
	ix, err := sdtw.NewShardedWindowedIndex(in.data, shards, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := windowedReference(in.queries[:4], in.data, 1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		wrap  func(http.Handler) http.Handler
		wrong bool
	}{
		{"honest", nil, false},
		{"wrong neighbour", corruptSearches(func(h *serve.HitJSON) {
			if h.ID == "w000000" {
				h.ID = "w000001"
			} else {
				h.ID = "w000000"
			}
		}), true},
		{"wrong distance", corruptSearches(func(h *serve.HitJSON) { h.Distance *= 1 + 1e-6 }), true},
	}
	for _, c := range cases {
		srv, err := startServer(ix, nil, c.wrap)
		if err != nil {
			t.Fatal(err)
		}
		tr := &searchTraffic{url: srv.url, queries: in.queries, k: 1, ref: ref, dur: 20 * time.Millisecond, minOps: 16}
		out := tr.run()
		if err := srv.stop(); err != nil {
			t.Fatal(err)
		}
		if c.wrong && (out.wrong == 0 || out.failed < out.wrong) {
			t.Errorf("%s: %d wrong, %d failed of %d; the planted answer was not caught", c.name, out.wrong, out.failed, out.attempted)
		}
		if !c.wrong && (out.wrong != 0 || out.failed != 0) {
			t.Errorf("%s: %d wrong, %d failed: %v", c.name, out.wrong, out.failed, out.errs)
		}
	}
}

// TestFleetMatchesCheckedAgainstMonitor runs a small fleet through the
// hub (every stream checked) and then plants a dropped and an altered
// match into one stream's list.
func TestFleetMatchesCheckedAgainstMonitor(t *testing.T) {
	in := genFleet(3, 6, 4*fleetBatch, 5)
	f := &fleetRun{in: in, split: 2 * fleetBatch, rate: 1e6, check: []int{0, 1, 2, 3, 4, 5}}
	hub, _, err := f.newHub(nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.run(hub)
	if err != nil {
		t.Fatal(err)
	}
	if out.wrong != 0 || out.failed != 0 || out.stats.Matches == 0 {
		t.Fatalf("honest hub: %d wrong, %d failed, %d matches: %v", out.wrong, out.failed, out.stats.Matches, out.errs)
	}

	mon, err := sdtw.NewMonitor(in.queries, sdtw.Options{}, sdtw.WithMatchThreshold(fleetThreshold), sdtw.WithMinGap(fleetQueryLen))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := mon.PushBatch(context.Background(), in.streams[0])
	if err != nil {
		t.Fatal(err)
	}
	tail, err := mon.Flush()
	if err != nil {
		t.Fatal(err)
	}
	var got []sdtw.StreamMatch
	for _, m := range append(ms, tail...) {
		got = append(got, sdtw.StreamMatch{Stream: in.ids[0], Query: m.QueryID, Start: m.Start, End: m.End, Distance: m.Distance})
	}
	if len(got) == 0 {
		t.Fatal("stream 0 has no matches to tamper with")
	}
	if err := checkStream(in, 0, got); err != nil {
		t.Fatalf("the reference's own matches were refused: %v", err)
	}
	if checkStream(in, 0, got[1:]) == nil {
		t.Error("a dropped match was not caught")
	}
	got[0].Distance += 1e-9
	if checkStream(in, 0, got) == nil {
		t.Error("an altered distance was not caught")
	}
}
