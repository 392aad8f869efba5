package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"sdtw"
)

// FuzzServeSearch compares the HTTP search path with the library: for
// any request body, /v1/search either answers 200 with exactly the hits
// ShardedIndex.Search returns for the decoded request (IDs and
// Float64bits distances) or refuses with a 4xx — never a 5xx, and never
// a panic.
//
//	go test -run '^$' -fuzz '^FuzzServeSearch$' -fuzztime 30s ./internal/serve
func FuzzServeSearch(f *testing.F) {
	d := sdtw.GunDataset(sdtw.DatasetConfig{Seed: 41, SeriesPerClass: 4})
	ix, err := sdtw.NewShardedIndex(d.Series, 2, sdtw.DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	h := New(ix, Config{}).Handler()

	seed := func(req any) {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	q := d.Series[0]
	threshold := 50.0
	seed(SearchRequest{Values: q.Values, K: 3})
	seed(SearchRequest{ID: q.ID, Values: q.Values, K: 2})
	seed(SearchRequest{ID: "novel", Values: d.Series[5].Values[:40], Threshold: &threshold})
	seed(SearchRequest{Values: []float64{1, 2, 3}, K: 100, Workers: 64})
	seed(SearchRequest{Values: []float64{1e300, -1e300, 7}, K: 1})
	seed(SearchRequest{Values: []float64{1e300, -1e300, 7, 1e300, -1e300, 7, 1e300, -1e300}, K: 2})
	seed(SearchRequest{K: 1})
	f.Add([]byte(`{"values":[1,2,"x"]}`))
	f.Add([]byte(`{"values":[1e999],"k":1}`))
	f.Add([]byte(`{"values":[0.5],"k":-1}`))
	f.Add([]byte(`{"values":[0.5]} trailing`))

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
		switch {
		case rec.Code >= 400 && rec.Code < 500:
			return
		case rec.Code != http.StatusOK:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		var got SearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("200 with undecodable reply %q for body %q: %v", rec.Body.Bytes(), body, err)
		}
		// Re-decode the request the way the handler does and ask the
		// library directly.
		var req SearchRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("server accepted a body the decoder refuses: %v", err)
		}
		var opts []sdtw.SearchOption
		switch {
		case req.K > 0:
			opts = append(opts, sdtw.WithK(req.K))
		case req.Threshold == nil:
			opts = append(opts, sdtw.WithK(1))
		}
		if req.Threshold != nil {
			opts = append(opts, sdtw.WithThreshold(*req.Threshold))
		}
		want, _, err := ix.Search(context.Background(), sdtw.Series{ID: req.ID, Values: req.Values}, opts...)
		if err != nil {
			t.Fatalf("server answered 200 where the library fails: %v", err)
		}
		if len(got.Hits) != len(want) {
			t.Fatalf("%d hits, library %d", len(got.Hits), len(want))
		}
		for i, w := range want {
			g := got.Hits[i]
			if g.ID != w.ID || g.Label != w.Label || math.Float64bits(g.Distance) != math.Float64bits(w.Distance) {
				t.Fatalf("hit %d: %+v, library %+v", i, g, w)
			}
		}
	})
}
