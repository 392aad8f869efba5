package retrieve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"sdtw/internal/dtw"
	"sdtw/internal/lower"
	"sdtw/internal/series"
	"sdtw/internal/sketch"
)

// fullDTWBackend is unconstrained DTW over series of any lengths: the
// smallest backend whose collections mix equal-length candidates (which
// take stage 0 and LB_Keogh) with unequal-length ones (LB_Kim only).
// Full-width envelopes keep LB_Keogh admissible for it.
type fullDTWBackend struct{}

func (fullDTWBackend) Fingerprint() string                { return "test/full-dtw" }
func (fullDTWBackend) Admit(series.Series) error          { return nil }
func (fullDTWBackend) Forget(series.Series)               {}
func (fullDTWBackend) Prepare(series.Series) (any, error) { return nil, nil }
func (fullDTWBackend) Cascade() bool                      { return true }
func (fullDTWBackend) Abandonable() bool                  { return true }
func (fullDTWBackend) EnvelopeRadius(m int) int           { return m }
func (fullDTWBackend) Distance(ctx context.Context, q *Query, c series.Series, budget float64) (Result, error) {
	b := dtw.FullBand(len(q.Values), len(c.Values))
	d, cells, abandoned, err := dtw.BandedAbandonCtx(ctx, q.Values, c.Values, b, nil, budget, nil)
	return Result{Distance: d, Abandoned: abandoned, CellsFilled: cells, BandCells: b.Cells()}, err
}

// randomWalk returns a length-n random walk.
func randomWalk(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	x := 0.0
	for i := range v {
		x += rng.NormFloat64()
		v[i] = x
	}
	return v
}

// checkConserved fails unless every candidate landed in exactly one
// cascade outcome.
func checkConserved(t *testing.T, st Stats) {
	t.Helper()
	if got := st.PrunedSketch + st.PrunedKim + st.PrunedKeogh + st.Evaluated; got != st.Candidates {
		t.Fatalf("sketch %d + kim %d + keogh %d + evaluated %d = %d, want Candidates %d",
			st.PrunedSketch, st.PrunedKim, st.PrunedKeogh, st.Evaluated, got, st.Candidates)
	}
}

// TestTailAccounting: one series equals the query and every other one is
// far away, so after the first candidate the whole scan is the pruned
// tail. Its equal-length part must be counted at stage 0 and its
// unequal-length part at LB_Kim, exactly as visiting each would.
func TestTailAccounting(t *testing.T) {
	const n, equalFar, unequalFar = 32, 30, 20
	rng := rand.New(rand.NewSource(7))
	query := randomWalk(rng, n)
	far := func(length int) []float64 {
		v := randomWalk(rng, length)
		for i := range v {
			v[i] += 1000
		}
		return v
	}
	var data []series.Series
	for i := 0; i < equalFar; i++ {
		data = append(data, series.Series{ID: fmt.Sprintf("eq-%d", i), Values: far(n)})
		if i < unequalFar {
			data = append(data, series.Series{ID: fmt.Sprintf("ne-%d", i), Values: far(n + 5 - 10*(i%2))})
		}
	}
	exact := len(data) / 2
	data = append(data[:exact], append([]series.Series{{ID: "twin", Values: append([]float64(nil), query...)}}, data[exact:]...)...)
	c, err := New(fullDTWBackend{}, data, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableSketches(8); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for _, shared := range []bool{false, true} {
			for _, limited := range []bool{false, true} {
				t.Run(fmt.Sprintf("workers=%d/shared=%v/limit=%v", workers, shared, limited), func(t *testing.T) {
					p := DefaultParams()
					p.Workers = workers
					if limited {
						p.Threshold, p.ThresholdSet = 1, true
					}
					if shared {
						p.Shared = NewSharedThreshold(math.Inf(1))
					}
					nbrs, st, err := c.Search(context.Background(), series.Series{Values: query}, p)
					if err != nil {
						t.Fatal(err)
					}
					if len(nbrs) != 1 || nbrs[0].Pos != exact || nbrs[0].Distance != 0 {
						t.Fatalf("answer %+v, want position %d at distance 0", nbrs, exact)
					}
					if st.Candidates != len(data) {
						t.Fatalf("Candidates = %d, want %d", st.Candidates, len(data))
					}
					checkConserved(t, st)
					// With one worker, or with a range limit every far
					// bound already exceeds, only the twin is ever visited.
					// More workers without a limit may pop a far candidate
					// before the twin's distance tightens the threshold.
					if workers == 1 || limited {
						if st.Evaluated != 1 || st.PrunedKeogh != 0 ||
							st.PrunedSketch != equalFar || st.PrunedKim != unequalFar {
							t.Fatalf("stats %v, want evaluated 1, keogh 0, sketch %d, kim %d", st, equalFar, unequalFar)
						}
					}
				})
			}
		}
	}
}

// fullScanReference is the cascade without the lazy heap and the tail
// stop: every candidate ordered by a full sort on (bound, pos) and
// visited in turn by one worker, the threshold tightening as the k-heap
// fills. It returns the answer and the per-stage counts.
func fullScanReference(t *testing.T, c *Core, q *Query, p Params) ([]Neighbor, Stats) {
	t.Helper()
	var st Stats
	limit := p.EffectiveThreshold()
	useSketch := c.sketchW > 0 && !p.NoSketch
	var cands []candidate
	for i, s := range c.data {
		if i == p.Exclude || (s.ID != "" && s.ID == q.ID) {
			continue
		}
		m := c.meta[i]
		ends := []float64{m.first, m.last}
		if m.n == 1 {
			ends = ends[:1]
		}
		kim, err := lower.Kim(q.Values, ends, nil)
		if err != nil {
			t.Fatal(err)
		}
		cd := candidate{pos: i, kim: kim, bound: kim}
		if useSketch && m.n == len(q.Values) {
			cd.bound, cd.paa = sketch.LBPAA(q.means, c.sketches[i], m.n), true
		}
		cands = append(cands, cd)
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].bound != cands[b].bound {
			return cands[a].bound < cands[b].bound
		}
		return cands[a].pos < cands[b].pos
	})
	st.Candidates = len(cands)
	k := p.K
	if k <= 0 || k > len(cands) {
		k = len(cands)
	}
	abandon := c.abandon.Load() && !p.NoAbandon
	threshold := limit
	var best []Neighbor // ascending (distance, pos), at most k
	for _, cd := range cands {
		if cd.paa && cd.bound > threshold {
			st.PrunedSketch++
			continue
		}
		if cd.kim > threshold {
			st.PrunedKim++
			continue
		}
		budget := math.Inf(1)
		if abandon {
			budget = threshold
		}
		if env := c.envelopes[cd.pos]; len(env.Upper) == len(q.Values) {
			kg, kgAbandoned, err := lower.KeoghUnder(q.Values, env, budget, nil)
			if err != nil {
				t.Fatal(err)
			}
			if kgAbandoned || kg > threshold {
				st.PrunedKeogh++
				continue
			}
		}
		res, err := c.backend.Distance(context.Background(), q, c.data[cd.pos], budget)
		if err != nil {
			t.Fatal(err)
		}
		st.Evaluated++
		st.Cells += res.CellsFilled
		if res.Abandoned {
			st.AbandonedDTW++
			st.CellsSaved += res.BandCells - res.CellsFilled
			continue
		}
		if res.Distance > limit {
			continue
		}
		nb := Neighbor{Pos: cd.pos, Distance: res.Distance}
		at := sort.Search(len(best), func(i int) bool {
			return best[i].Distance > nb.Distance || (best[i].Distance == nb.Distance && best[i].Pos > nb.Pos)
		})
		best = append(best[:at], append([]Neighbor{nb}, best[at:]...)...)
		if len(best) > k {
			best = best[:k]
		}
		if len(best) == k && best[k-1].Distance < threshold {
			threshold = best[k-1].Distance
		}
	}
	return best, st
}

// TestLazyScanMatchesFullSort is the property test of the lazy scan: with
// one worker, the answer and every per-stage count equal those of the
// full-sort reference, over random collections (equal-length windowed
// and mixed-length unconstrained), k, sketch widths, range limits and
// exclusions.
func TestLazyScanMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 16 + rng.Intn(48)
		size := 20 + rng.Intn(300)
		mixed := trial%2 == 1
		data := make([]series.Series, size)
		for i := range data {
			length := n
			if mixed && rng.Intn(3) == 0 {
				length = n + rng.Intn(9) - 4
			}
			data[i] = series.Series{ID: fmt.Sprintf("s%d", i), Values: randomWalk(rng, length)}
		}
		var backend Backend = fullDTWBackend{}
		if !mixed {
			var err error
			if backend, _, err = NewWindowedBackend(n, rng.Intn(8)); err != nil {
				t.Fatal(err)
			}
		}
		c, err := New(backend, data, 1, trial%5 != 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.EnableSketches(1 + rng.Intn(20)); err != nil {
			t.Fatal(err)
		}
		for qn := 0; qn < 4; qn++ {
			qs := series.Series{Values: randomWalk(rng, n)}
			if qn == 0 {
				qs = data[rng.Intn(size)] // an indexed series: self-excluded by ID
			}
			p := DefaultParams()
			p.Workers = 1
			p.K = rng.Intn(6)
			p.NoSketch = rng.Intn(4) == 0
			if rng.Intn(3) == 0 {
				p.Exclude = rng.Intn(size)
			}
			if rng.Intn(3) == 0 {
				p.Threshold, p.ThresholdSet = rng.Float64()*float64(n)*4, true
			}
			q, err := Prepare(c.backend, qs, c.sketchW)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := c.SearchPrepared(context.Background(), q, p)
			if err != nil {
				t.Fatal(err)
			}
			want, ref := fullScanReference(t, c, q, p)
			checkConserved(t, st)
			if len(got) != len(want) {
				t.Fatalf("trial %d query %d: %d neighbours, reference %d", trial, qn, len(got), len(want))
			}
			for i := range got {
				if got[i].Pos != want[i].Pos || math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
					t.Fatalf("trial %d query %d: neighbour %d = %+v, reference %+v", trial, qn, i, got[i], want[i])
				}
			}
			if st.Candidates != ref.Candidates || st.PrunedSketch != ref.PrunedSketch || st.PrunedKim != ref.PrunedKim ||
				st.PrunedKeogh != ref.PrunedKeogh || st.Evaluated != ref.Evaluated || st.AbandonedDTW != ref.AbandonedDTW ||
				st.Cells != ref.Cells || st.CellsSaved != ref.CellsSaved {
				t.Fatalf("trial %d query %d (k=%d): stats %v, reference %v", trial, qn, p.K, st, ref)
			}
		}
	}
}

// TestWindowedScanMatchesBruteForce pins answers against a brute-force
// scan on a collection large enough that the bulk-pruned tail is almost
// all of every search: 20,000 random walks, windowed DTW at radius 6.
func TestWindowedScanMatchesBruteForce(t *testing.T) {
	const size, n, r, w = 20000, 128, 6, 16
	rng := rand.New(rand.NewSource(3))
	data := make([]series.Series, size)
	for i := range data {
		data[i] = series.Series{Values: randomWalk(rng, n)}
	}
	backend, _, err := NewWindowedBackend(n, r)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(backend, data, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableSketches(w); err != nil {
		t.Fatal(err)
	}
	band := dtw.SakoeChibaRadius(n, n, r)
	for qn := 0; qn < 3; qn++ {
		query := randomWalk(rng, n)
		all := make([]Neighbor, size)
		for i, s := range data {
			d, _, err := dtw.Banded(query, s.Values, band, nil)
			if err != nil {
				t.Fatal(err)
			}
			all[i] = Neighbor{Pos: i, Distance: d}
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].Distance != all[b].Distance {
				return all[a].Distance < all[b].Distance
			}
			return all[a].Pos < all[b].Pos
		})
		for _, k := range []int{1, 5} {
			for _, workers := range []int{1, 4} {
				p := DefaultParams()
				p.K, p.Workers = k, workers
				got, st, err := c.Search(context.Background(), series.Series{Values: query}, p)
				if err != nil {
					t.Fatal(err)
				}
				checkConserved(t, st)
				if st.PruneRate() < 0.9 {
					t.Fatalf("query %d k=%d workers=%d: prune rate %.3f, the tail path is not exercised", qn, k, workers, st.PruneRate())
				}
				for i := 0; i < k; i++ {
					if got[i].Pos != all[i].Pos || math.Float64bits(got[i].Distance) != math.Float64bits(all[i].Distance) {
						t.Fatalf("query %d k=%d workers=%d: neighbour %d = %+v, brute force %+v", qn, k, workers, i, got[i], all[i])
					}
				}
			}
		}
	}
}

// TestSearchReusesCandidateBuffer: once warm, a search over a large
// collection allocates nothing proportional to the collection.
func TestSearchReusesCandidateBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const size, n = 5000, 32
	rng := rand.New(rand.NewSource(5))
	data := make([]series.Series, size)
	for i := range data {
		data[i] = series.Series{Values: randomWalk(rng, n)}
	}
	backend, _, err := NewWindowedBackend(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(backend, data, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableSketches(8); err != nil {
		t.Fatal(err)
	}
	q, err := Prepare(backend, series.Series{Values: randomWalk(rng, n)}, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Workers = 1
	search := func() {
		if _, _, err := c.SearchPrepared(context.Background(), q, p); err != nil {
			t.Fatal(err)
		}
	}
	search()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		search()
	}
	runtime.ReadMemStats(&after)
	// A candidate is 32 bytes: a fresh buffer per search would cost
	// size*32 = 160 kB each. A garbage collection may empty the pool
	// now and then, so the bound leaves room for a rare refill.
	if perSearch := (after.TotalAlloc - before.TotalAlloc) / runs; perSearch > size*8 {
		t.Fatalf("a warm search allocates %d bytes, want well under %d (no per-search candidate buffer)", perSearch, size*32)
	}
}
