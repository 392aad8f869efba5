package sdtw

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
)

// valueOnlyKind is one index kind under the value-only property: a
// search returning ID-keyed hits, the mutators, and the feature-cache
// size summed over the kind's engines.
type valueOnlyKind struct {
	search    func(q Series, k int) ([]Hit, error)
	add       func(s Series) error
	remove    func(id string) error
	len       func() int
	cacheSize func() int
	// warm reports whether construction cached every series' features;
	// a store-backed index fills its cache read-through instead.
	warm bool
}

func indexKind(ix *Index, warm bool) valueOnlyKind {
	return valueOnlyKind{
		search: func(q Series, k int) ([]Hit, error) {
			nbrs, _, err := ix.Search(context.Background(), q, WithK(k))
			return flatHits(ix, nbrs), err
		},
		add:       ix.Add,
		remove:    ix.Remove,
		len:       ix.Len,
		cacheSize: func() int { return ix.Engine().inner.CacheSize() },
		warm:      warm,
	}
}

func shardedKind(si *ShardedIndex, warm bool) valueOnlyKind {
	return valueOnlyKind{
		search: func(q Series, k int) ([]Hit, error) {
			hits, _, err := si.Search(context.Background(), q, WithK(k))
			return hits, err
		},
		add:       si.Add,
		remove:    si.Remove,
		len:       si.Len,
		cacheSize: func() int { return ShardedCacheSize(si) },
		warm:      warm,
	}
}

// valueOnlyKinds builds every index kind the property covers over data:
// flat, sharded, and both store-backed.
func valueOnlyKinds(t *testing.T, data []Series, opts Options) map[string]valueOnlyKind {
	t.Helper()
	flat, err := NewIndex(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedIndex(data, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	flatDir := filepath.Join(t.TempDir(), "flat")
	if err := flat.SaveStore(flatDir); err != nil {
		t.Fatal(err)
	}
	coldFlat, err := OpenIndex(flatDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coldFlat.CloseStore() })
	shardedDir := filepath.Join(t.TempDir(), "sharded")
	if err := sharded.SaveStore(shardedDir); err != nil {
		t.Fatal(err)
	}
	coldSharded, err := OpenShardedIndex(shardedDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coldSharded.CloseStore() })
	return map[string]valueOnlyKind{
		"flat":          indexKind(flat, true),
		"sharded":       shardedKind(sharded, true),
		"store-flat":    indexKind(coldFlat, false),
		"store-sharded": shardedKind(coldSharded, false),
	}
}

// withoutID drops the hit of the given ID and truncates to k: the answer
// of a search that excludes that series from its candidates.
func withoutID(hits []Hit, id string, k int) []Hit {
	out := make([]Hit, 0, len(hits))
	for _, h := range hits {
		if h.ID != id {
			out = append(out, h)
		}
	}
	return out[:min(k, len(out))]
}

// TestAnswersDependOnlyOnValues is the regression property for the
// query-side feature cache: an answer depends only on the query's values
// and the collection. For random Trace queries the answer is the same —
// IDs and Float64bits distances — with no ID, a fresh ID, an ID already
// used with other values, and the ID of a series removed and re-added
// with new values (whose only permitted effect is excluding that series
// from its own answer), on every index kind, with Symmetric on and off.
// Searches never grow the feature cache past the collection.
func TestAnswersDependOnlyOnValues(t *testing.T) {
	data := TraceDataset(DatasetConfig{Seed: 21, SeriesPerClass: 5}).Series
	held := TraceDataset(DatasetConfig{Seed: 22, SeriesPerClass: 2}).Series
	const k = 4
	for _, sym := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Symmetric = sym
		for name, kind := range valueOnlyKinds(t, data, opts) {
			label := fmt.Sprintf("%s/sym=%v", name, sym)
			// Re-add one series under its old ID with a held-out
			// series' values.
			readded := data[3].ID
			if err := kind.remove(readded); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := kind.add(Series{ID: readded, Label: 9, Values: held[len(held)-1].Values}); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			// Plant a history under the reused ID.
			if _, err := kind.search(Series{ID: "reused", Values: held[len(held)-2].Values}, k); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for qi, h := range held[:len(held)-2] {
				anon, err := kind.search(Series{Values: h.Values}, k+1)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for _, tc := range []struct {
					id   string
					want []Hit
				}{
					{"", anon[:k]},
					{fmt.Sprintf("fresh-%d", qi), anon[:k]},
					{"reused", anon[:k]},
					{readded, withoutID(anon, readded, k)},
				} {
					got, err := kind.search(Series{ID: tc.id, Values: h.Values}, k)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					requireSameHits(t, fmt.Sprintf("%s query %d id %q", label, qi, tc.id), tc.want, got)
				}
			}
			if n := kind.cacheSize(); n > kind.len() || (kind.warm && n != kind.len()) {
				t.Fatalf("%s: feature cache holds %d sets for %d series", label, n, kind.len())
			}
		}
	}
}

// TestNovelQueryIDsDoNotGrowCache: 200 searches under never-seen IDs
// leave the feature cache exactly the size of the collection.
func TestNovelQueryIDsDoNotGrowCache(t *testing.T) {
	data := TraceDataset(DatasetConfig{Seed: 23, SeriesPerClass: 3}).Series
	held := TraceDataset(DatasetConfig{Seed: 24, SeriesPerClass: 2}).Series
	opts := DefaultOptions()
	flat, err := NewIndex(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedIndex(data, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, kind := range map[string]valueOnlyKind{"flat": indexKind(flat, true), "sharded": shardedKind(sharded, true)} {
		for i := 0; i < 200; i++ {
			q := Series{ID: fmt.Sprintf("novel-%d", i), Values: held[i%len(held)].Values}
			if _, err := kind.search(q, 3); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if n := kind.cacheSize(); n != kind.len() {
			t.Fatalf("%s: feature cache holds %d sets after 200 novel-ID searches, want %d", name, n, kind.len())
		}
	}
}
