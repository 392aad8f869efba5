package main

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"sdtw"
)

// A reference answer is computed by brute force over every candidate,
// from the generated inputs only, outside the timed window. The program's
// answers are compared against it; a mismatch is a failed operation.

// refHit is one candidate's reference distance.
type refHit struct {
	ID   string
	Dist float64
}

// reference holds, per checked query, every eligible candidate's
// distance in ascending order.
type reference struct {
	k       int
	answers [][]refHit
}

// windowedDTW is an independent banded DTW under the squared point cost
// with a Sakoe-Chiba window of radius r (|i-j| <= r), the distance the
// windowed index answers with. prev and cur are scratch rows of length
// len(y)+1.
func windowedDTW(x, y []float64, r int, prev, cur []float64) float64 {
	inf := math.Inf(1)
	m := len(y)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= len(x); i++ {
		for j := range cur {
			cur[j] = inf
		}
		lo, hi := max(1, i-r), min(m, i+r)
		for j := lo; j <= hi; j++ {
			d := x[i-1] - y[j-1]
			best := prev[j-1]
			if prev[j] < best {
				best = prev[j]
			}
			if cur[j-1] < best {
				best = cur[j-1]
			}
			cur[j] = float64(d*d) + best
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// bruteForce computes dist(query, candidate) for every candidate whose
// ID differs from the query's, on workers goroutines, and returns them
// sorted by distance.
func bruteForce(query sdtw.Series, data []sdtw.Series, workers int, dist func(w int, q, c sdtw.Series) (float64, error)) ([]refHit, error) {
	out := make([]refHit, len(data))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(data); i += workers {
				out[i] = refHit{ID: data[i].ID, Dist: math.Inf(1)}
				if query.ID != "" && data[i].ID == query.ID {
					continue
				}
				d, err := dist(w, query, data[i])
				if err != nil {
					errs[w] = err
					return
				}
				out[i].Dist = d
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference distance: %w", err)
		}
	}
	kept := out[:0]
	for _, h := range out {
		if !math.IsInf(h.Dist, 1) {
			kept = append(kept, h)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Dist < kept[j].Dist })
	return kept, nil
}

// windowedReference brute-forces the windowed DTW answers of queries.
func windowedReference(queries, data []sdtw.Series, k, r, workers int) (*reference, error) {
	m := data[0].Len() + 1
	rows := make([][2][]float64, workers)
	for w := range rows {
		rows[w] = [2][]float64{make([]float64, m), make([]float64, m)}
	}
	dist := func(w int, q, c sdtw.Series) (float64, error) {
		return windowedDTW(q.Values, c.Values, r, rows[w][0], rows[w][1]), nil
	}
	return buildReference(queries, data, k, workers, dist)
}

// engineReference brute-forces the sDTW answers of queries with a fresh
// engine's DistanceSeries.
func engineReference(queries, data []sdtw.Series, k, workers int, opts sdtw.Options) (*reference, error) {
	engine := sdtw.NewEngine(opts)
	dist := func(_ int, q, c sdtw.Series) (float64, error) {
		res, err := engine.DistanceSeries(q, c)
		return res.Distance, err
	}
	return buildReference(queries, data, k, workers, dist)
}

func buildReference(queries, data []sdtw.Series, k, workers int, dist func(int, sdtw.Series, sdtw.Series) (float64, error)) (*reference, error) {
	ref := &reference{k: k, answers: make([][]refHit, len(queries))}
	for i, q := range queries {
		hits, err := bruteForce(q, data, workers, dist)
		if err != nil {
			return nil, err
		}
		ref.answers[i] = hits
	}
	return ref, nil
}

// sameDist compares distances up to floating-point reassociation.
func sameDist(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkHits compares a returned top-k with the reference answer of
// checked query i: the distances must equal the reference's k smallest
// rank by rank, and every returned ID must carry its own reference
// distance (so ties may resolve either way, but no wrong series passes).
func (r *reference) checkHits(i int, ids []string, dists []float64) error {
	want := r.answers[i]
	n := min(r.k, len(want))
	if len(ids) != n || len(dists) != n {
		return fmt.Errorf("query %d: %d hits, want %d", i, len(ids), n)
	}
	byID := make(map[string]float64, len(want))
	for _, h := range want {
		byID[h.ID] = h.Dist
	}
	for j := 0; j < n; j++ {
		if !sameDist(dists[j], want[j].Dist) {
			return fmt.Errorf("query %d rank %d: distance %v, want %v", i, j, dists[j], want[j].Dist)
		}
		d, ok := byID[ids[j]]
		if !ok || !sameDist(d, dists[j]) {
			return fmt.Errorf("query %d rank %d: %q is not at distance %v", i, j, ids[j], dists[j])
		}
	}
	return nil
}
