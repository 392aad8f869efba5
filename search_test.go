package sdtw

import (
	"context"
	"errors"
	"math"
	"testing"
)

// IsErr is a terse errors.Is for test assertions.
func IsErr(err, target error) bool { return errors.Is(err, target) }

// searchIndexes builds one index per backend over the same equal-length
// workload, so validation and option tests cover both through the one
// Search surface.
func searchIndexes(t *testing.T) (map[string]*Index, *Dataset) {
	t.Helper()
	d := TraceDataset(DatasetConfig{Seed: 13, SeriesPerClass: 4})
	engine, err := NewIndex(d.Series, Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := NewWindowedIndex(d.Series, 12)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Index{"engine": engine, "windowed": windowed}, d
}

// TestSearchValidationTable is the uniform-validation property: every
// boundary of the option surface reports the same sentinel error on both
// backends.
func TestSearchValidationTable(t *testing.T) {
	indexes, d := searchIndexes(t)
	ctx := context.Background()
	for name, ix := range indexes {
		cases := []struct {
			name    string
			query   Series
			opts    []SearchOption
			wantErr error // nil means success
			wantLen int
		}{
			{"k=0", d.Series[0], []SearchOption{WithK(0)}, ErrBadK, 0},
			{"k=-3", d.Series[0], []SearchOption{WithK(-3)}, ErrBadK, 0},
			{"empty query", NewSeries("q", 0, nil), []SearchOption{WithK(3)}, ErrEmptySeries, 0},
			{"empty query values", Series{ID: "q", Values: []float64{}}, []SearchOption{WithK(3)}, ErrEmptySeries, 0},
			{"NaN threshold", d.Series[0], []SearchOption{WithThreshold(math.NaN())}, errors.New("any"), 0},
			{"k=1", d.Series[0], []SearchOption{WithK(1)}, nil, 1},
			{"default k", d.Series[0], nil, nil, 1},
			{"oversized k", d.Series[0], []SearchOption{WithK(10_000)}, nil, d.Len() - 1},
		}
		for _, tc := range cases {
			nbrs, _, err := ix.Search(ctx, tc.query, tc.opts...)
			switch {
			case tc.wantErr == nil:
				if err != nil {
					t.Fatalf("%s/%s: unexpected error %v", name, tc.name, err)
				}
				if len(nbrs) != tc.wantLen {
					t.Fatalf("%s/%s: %d neighbours, want %d", name, tc.name, len(nbrs), tc.wantLen)
				}
			case tc.wantErr.Error() == "any":
				if err == nil {
					t.Fatalf("%s/%s: bad input accepted", name, tc.name)
				}
			default:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("%s/%s: got %v, want %v", name, tc.name, err, tc.wantErr)
				}
			}
		}
	}
	// The windowed backend additionally rejects wrong-length queries.
	short := NewSeries("short", 0, make([]float64, 7))
	if _, _, err := indexes["windowed"].Search(ctx, short, WithK(1)); !IsErr(err, ErrLengthMismatch) {
		t.Fatalf("windowed wrong-length query: got %v, want ErrLengthMismatch", err)
	}
	// Batches validate the same way and reject empty query lists.
	for name, ix := range indexes {
		if _, _, err := ix.SearchBatch(ctx, nil, WithK(1)); !IsErr(err, ErrEmptyCollection) {
			t.Fatalf("%s: empty batch: got %v, want ErrEmptyCollection", name, err)
		}
		if _, _, err := ix.SearchBatch(ctx, d.Series[:2], WithK(0)); !IsErr(err, ErrBadK) {
			t.Fatalf("%s: batch k=0: got %v, want ErrBadK", name, err)
		}
	}
}

// TestSearchThreshold checks WithThreshold semantics on both backends:
// alone it returns every neighbour within the threshold; with WithK it
// returns the k nearest within it; and it never changes which distances
// are reported, only which candidates survive.
func TestSearchThreshold(t *testing.T) {
	indexes, d := searchIndexes(t)
	ctx := context.Background()
	for name, ix := range indexes {
		q := d.Series[0]
		full, _, err := ix.Search(ctx, q, WithK(ix.Len()))
		if err != nil {
			t.Fatal(err)
		}
		// Cut halfway through the ranked list.
		cut := full[len(full)/2].Distance
		within, _, err := ix.Search(ctx, q, WithThreshold(cut))
		if err != nil {
			t.Fatal(err)
		}
		var want []Neighbor
		for _, nb := range full {
			if nb.Distance <= cut {
				want = append(want, nb)
			}
		}
		if len(within) != len(want) {
			t.Fatalf("%s: threshold %g returned %d neighbours, want %d", name, cut, len(within), len(want))
		}
		for i := range want {
			if within[i] != want[i] {
				t.Fatalf("%s: rank %d: %+v, want %+v", name, i, within[i], want[i])
			}
		}
		// WithK on top truncates the same list.
		topWithin, _, err := ix.Search(ctx, q, WithThreshold(cut), WithK(2))
		if err != nil {
			t.Fatal(err)
		}
		if len(topWithin) != 2 || topWithin[0] != want[0] || topWithin[1] != want[1] {
			t.Fatalf("%s: WithK+WithThreshold = %+v, want prefix of %+v", name, topWithin, want[:2])
		}
		// A threshold below every distance returns nothing, without error.
		none, _, err := ix.Search(ctx, q, WithThreshold(-1))
		if err != nil {
			t.Fatal(err)
		}
		if len(none) != 0 {
			t.Fatalf("%s: negative threshold returned %+v", name, none)
		}
	}
}

// TestSearchWithExclude checks positional exclusion for ID-less
// leave-one-out workloads.
func TestSearchWithExclude(t *testing.T) {
	data := []Series{
		NewSeries("", 0, []float64{0, 1, 2, 3, 2, 1, 0, 1}),
		NewSeries("", 1, []float64{0, 1, 2, 3, 2, 1, 0, 2}),
		NewSeries("", 2, []float64{5, 4, 3, 2, 3, 4, 5, 4}),
	}
	ix, err := NewIndex(data, Options{Strategy: FullGrid})
	if err != nil {
		t.Fatal(err)
	}
	// Without exclusion, querying series 0 finds itself at distance 0.
	nbrs, _, err := ix.Search(context.Background(), data[0], WithK(1))
	if err != nil {
		t.Fatal(err)
	}
	if nbrs[0].Pos != 0 || nbrs[0].Distance != 0 {
		t.Fatalf("expected self-match, got %+v", nbrs[0])
	}
	// WithExclude(0) removes it from the candidate set.
	nbrs, stats, err := ix.Search(context.Background(), data[0], WithK(1), WithExclude(0))
	if err != nil {
		t.Fatal(err)
	}
	if nbrs[0].Pos != 1 {
		t.Fatalf("excluded search returned pos %d, want 1", nbrs[0].Pos)
	}
	if stats.Candidates != 2 {
		t.Fatalf("candidates = %d after exclusion, want 2", stats.Candidates)
	}
	// The exclusion applies to every query of a batch, too.
	batch, bstats, err := ix.SearchBatch(context.Background(), data[:2], WithK(1), WithExclude(0))
	if err != nil {
		t.Fatal(err)
	}
	if bstats.Candidates != 4 {
		t.Fatalf("batch candidates = %d after exclusion, want 4", bstats.Candidates)
	}
	for qi, nb := range batch {
		if nb[0].Pos == 0 {
			t.Fatalf("batch query %d returned the excluded position: %+v", qi, nb[0])
		}
	}
}

// TestSearchWithWorkers checks worker-count overrides change scheduling
// only: a sequential search returns bit-identical neighbours to the
// default parallel one.
func TestSearchWithWorkers(t *testing.T) {
	indexes, d := searchIndexes(t)
	ctx := context.Background()
	for name, ix := range indexes {
		for _, q := range []Series{d.Series[0], d.Series[d.Len()-1]} {
			par, _, err := ix.Search(ctx, q, WithK(4))
			if err != nil {
				t.Fatal(err)
			}
			seq, _, err := ix.Search(ctx, q, WithK(4), WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			for i := range par {
				if par[i] != seq[i] {
					t.Fatalf("%s: rank %d: parallel %+v vs sequential %+v", name, i, par[i], seq[i])
				}
			}
		}
	}
}

// TestExplicitZeroThreshold regression-pins the zero-value threshold
// distinction on the public surface: WithThreshold(0) is a real range
// limit (exact matches only), not "unset" — the self-match at distance 0
// survives it, every other neighbour does not — while omitting the
// option means no limit at all.
func TestExplicitZeroThreshold(t *testing.T) {
	indexes, d := searchIndexes(t)
	ctx := context.Background()
	for name, ix := range indexes {
		q := NewSeries("probe", 0, d.Series[0].Values) // exact copy, distinct ID
		hits, _, err := ix.Search(ctx, q, WithThreshold(0))
		if err != nil {
			t.Fatalf("%s: threshold-0 search: %v", name, err)
		}
		if len(hits) != 1 || hits[0].Distance != 0 || hits[0].Pos != 0 {
			t.Fatalf("%s: threshold-0 search = %+v, want exactly the copy at position 0", name, hits)
		}
		all, _, err := ix.Search(ctx, q, WithK(d.Len()))
		if err != nil {
			t.Fatalf("%s: unthresholded search: %v", name, err)
		}
		if len(all) != d.Len() {
			t.Fatalf("%s: unthresholded search returned %d hits, want %d", name, len(all), d.Len())
		}
	}
}

// withValue returns a copy of s with values[i] replaced by v.
func withValue(s Series, i int, v float64) Series {
	c := s.Clone()
	c.Values[i] = v
	return c
}

// TestNonFiniteRejected: a NaN or an infinity is refused with
// ErrNonFinite wherever series enter the search path — index
// construction, Add (in RAM, sharded, and through a segment store), and
// every query — instead of yielding NaN-distance hits.
func TestNonFiniteRejected(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 31, SeriesPerClass: 3})
	ctx := context.Background()
	opts := Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10}
	bad := map[string]Series{
		"NaN":  withValue(d.Series[0], 5, math.NaN()),
		"+Inf": withValue(d.Series[0], 0, math.Inf(1)),
		"-Inf": withValue(d.Series[0], d.Series[0].Len()-1, math.Inf(-1)),
	}
	require := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrNonFinite) {
			t.Fatalf("%s: got %v, want ErrNonFinite", what, err)
		}
	}
	flat, err := NewIndex(d.Series, opts)
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := NewWindowedIndex(d.Series, 12)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedIndex(d.Series, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/store"
	if err := flat.SaveStore(dir); err != nil {
		t.Fatal(err)
	}
	cold, err := OpenIndex(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.CloseStore()
	for name, s := range bad {
		data := append([]Series{s}, d.Series[1:]...)
		_, err := NewIndex(data, opts)
		require(name+" NewIndex", err)
		_, err = NewWindowedIndex(data, 12)
		require(name+" NewWindowedIndex", err)
		_, err = NewShardedIndex(data, 2, opts)
		require(name+" NewShardedIndex", err)

		added := Series{ID: "added", Values: s.Values}
		require(name+" Index.Add", flat.Add(added))
		require(name+" ShardedIndex.Add", sharded.Add(added))
		require(name+" store-backed Add", cold.Add(added))

		query := Series{Values: s.Values}
		for ixName, ix := range map[string]*Index{"flat": flat, "windowed": windowed, "store": cold} {
			_, _, err = ix.Search(ctx, query, WithK(3))
			require(name+" "+ixName+" Search", err)
			_, _, err = ix.SearchBatch(ctx, []Series{d.Series[1], query}, WithK(3))
			require(name+" "+ixName+" SearchBatch", err)
		}
		_, _, err = sharded.Search(ctx, query, WithK(3))
		require(name+" ShardedIndex.Search", err)
	}
	if flat.Len() != d.Len() || sharded.Len() != d.Len() || cold.Len() != d.Len() {
		t.Fatalf("rejected adds changed the collections: %d/%d/%d, want %d", flat.Len(), sharded.Len(), cold.Len(), d.Len())
	}
	st, err := cold.StoreStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.LiveRecords != d.Len() {
		t.Fatalf("rejected adds reached the store: %d live records, want %d", st.LiveRecords, d.Len())
	}
}

// TestSearchStatsPrepareTime: an engine-backed search spends measurable
// time preparing its query (salient features), and that time is part of
// the search's wall time, flat and sharded alike.
func TestSearchStatsPrepareTime(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 33, SeriesPerClass: 3})
	q := Series{Values: TraceDataset(DatasetConfig{Seed: 34, SeriesPerClass: 1}).Series[0].Values}
	ctx := context.Background()
	flat, err := NewIndex(d.Series, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedIndex(d.Series, 2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, flatStats, err := flat.Search(ctx, q, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	_, shardedStats, err := sharded.Search(ctx, q, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]SearchStats{"flat": flatStats, "sharded": shardedStats} {
		if st.PrepareTime <= 0 || st.PrepareTime > st.WallTime {
			t.Fatalf("%s: PrepareTime %v, WallTime %v: want 0 < PrepareTime <= WallTime", name, st.PrepareTime, st.WallTime)
		}
	}
}
