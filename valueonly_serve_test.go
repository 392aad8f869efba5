package sdtw_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"sdtw"
	"sdtw/internal/serve"
)

// TestServeNovelQueryIDs drives /v1/search with 200 never-seen query IDs:
// every reply equals the library's anonymous answer for the same values,
// and the shard engines' feature caches stay exactly the size of the
// collection.
func TestServeNovelQueryIDs(t *testing.T) {
	data := sdtw.TraceDataset(sdtw.DatasetConfig{Seed: 25, SeriesPerClass: 3}).Series
	held := sdtw.TraceDataset(sdtw.DatasetConfig{Seed: 26, SeriesPerClass: 2}).Series
	ix, err := sdtw.NewShardedIndex(data, 2, sdtw.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]sdtw.Hit, len(held))
	for i, h := range held {
		if want[i], _, err = ix.Search(context.Background(), sdtw.Series{Values: h.Values}, sdtw.WithK(3)); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(serve.New(ix, serve.Config{}).Handler())
	defer ts.Close()
	for i := 0; i < 200; i++ {
		qi := i % len(held)
		body, err := json.Marshal(serve.SearchRequest{ID: fmt.Sprintf("novel-%d", i), Values: held[qi].Values, K: 3})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got serve.SearchResponse
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("search %d: status %d, %v", i, resp.StatusCode, err)
		}
		if len(got.Hits) != len(want[qi]) {
			t.Fatalf("search %d: %d hits, want %d", i, len(got.Hits), len(want[qi]))
		}
		for j, h := range got.Hits {
			w := want[qi][j]
			if h.ID != w.ID || math.Float64bits(h.Distance) != math.Float64bits(w.Distance) {
				t.Fatalf("search %d rank %d: %s %v, want %s %v", i, j, h.ID, h.Distance, w.ID, w.Distance)
			}
		}
	}
	if n := sdtw.ShardedCacheSize(ix); n != ix.Len() {
		t.Fatalf("feature cache holds %d sets after 200 novel-ID searches, want %d", n, ix.Len())
	}
}
