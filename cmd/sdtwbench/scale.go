package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sdtw"
	"sdtw/internal/experiments"
)

// scaleEntry is one row of the machine-readable scaling results: per
// collection size, how fast the index comes up from its segment store
// and how hard the stage-0 sketch filter prunes once it is up — the
// numbers the bench-scale CI lane gates against a committed baseline.
type scaleEntry struct {
	Dataset         string  `json:"dataset"`
	Series          int     `json:"series"`
	Length          int     `json:"length"`
	StoreOpenMS     float64 `json:"store_open_ms"`
	OpenUSPerSeries float64 `json:"open_us_per_series"`
	QPS             float64 `json:"qps"`
	SketchPruneRate float64 `json:"sketch_prune_rate"`
	PruneRate       float64 `json:"prune_rate"`
}

// writeScaleJSON persists the scaling entries for machines (the CI
// regression gate) next to the human-readable table on stdout.
func writeScaleJSON(path string, entries []scaleEntry) error {
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding scale results: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing scale results: %w", err)
	}
	return nil
}

// scaleSizes is the collection-size sweep (as multiples of the base
// dataset) per workload scale.
func scaleSizes(sc experiments.Scale) []int {
	switch sc {
	case experiments.Small:
		return []int{1, 2}
	case experiments.Medium:
		return []int{1, 4}
	default:
		return []int{1, 4, 16}
	}
}

// runScale benchmarks the storage layer end to end: per collection size,
// it exports one index into a segment store, times a cold open (which
// reads only the hot sections — envelopes and sketches — and leaves raw
// values on disk), then drives k=5 searches through the store-backed
// index to measure throughput and the stage-0 sketch filter's prune
// rate.
func runScale(name string, sc experiments.Scale, seed int64) (string, []scaleEntry, error) {
	d, err := experiments.LoadDataset(name, sc, seed)
	if err != nil {
		return "", nil, err
	}
	opts := sdtw.Options{Strategy: sdtw.FixedCoreFixedWidth, WidthFrac: 0.10}
	queries := d.Len()
	if queries > 40 {
		queries = 40
	}

	var sb strings.Builder
	var entries []scaleEntry
	fmt.Fprintf(&sb, "%s: segment store, k=5, %d queries per point\n", d.Name, queries)
	fmt.Fprintf(&sb, "%-8s %10s %12s %10s %8s %8s\n",
		"series", "open", "us/series", "qps", "lb_paa", "pruned")

	for _, mult := range scaleSizes(sc) {
		size := mult * d.Len()
		collection := make([]sdtw.Series, 0, size)
		for i := 0; len(collection) < size; i++ {
			s := d.Series[i%d.Len()]
			if i >= d.Len() {
				s = sdtw.NewSeries(fmt.Sprintf("%s#rep%d", s.ID, i/d.Len()), s.Label, s.Values)
			}
			collection = append(collection, s)
		}
		ix, err := sdtw.NewIndex(collection, opts)
		if err != nil {
			return "", nil, fmt.Errorf("indexing %d series of %s: %w", size, d.Name, err)
		}

		// Export segments, time a cold open.
		tmp, err := os.MkdirTemp("", "sdtw-scale-")
		if err != nil {
			return "", nil, err
		}
		dir := filepath.Join(tmp, "store")
		if err := ix.SaveStore(dir); err != nil {
			os.RemoveAll(tmp)
			return "", nil, fmt.Errorf("store export: %w", err)
		}
		t0 := time.Now()
		cold, err := sdtw.OpenIndex(dir, opts)
		if err != nil {
			os.RemoveAll(tmp)
			return "", nil, fmt.Errorf("store open: %w", err)
		}
		storeOpen := time.Since(t0)

		// Serve from the store-backed index: throughput and prune rates.
		ctx := context.Background()
		var candidates, sketch, pruned int
		t0 = time.Now()
		for q := 0; q < queries; q++ {
			_, stats, err := cold.Search(ctx, d.Series[q%d.Len()], sdtw.WithK(5))
			if err != nil {
				cold.CloseStore()
				os.RemoveAll(tmp)
				return "", nil, fmt.Errorf("store-backed search: %w", err)
			}
			candidates += stats.Candidates
			sketch += stats.PrunedSketch
			pruned += stats.PrunedSketch + stats.PrunedKim + stats.PrunedKeogh
		}
		wall := time.Since(t0)
		cold.CloseStore()
		os.RemoveAll(tmp)

		e := scaleEntry{
			Dataset:         d.Name,
			Series:          size,
			Length:          d.Length,
			StoreOpenMS:     float64(storeOpen.Microseconds()) / 1000,
			OpenUSPerSeries: float64(storeOpen.Microseconds()) / float64(size),
			QPS:             float64(queries) / wall.Seconds(),
		}
		if candidates > 0 {
			e.SketchPruneRate = float64(sketch) / float64(candidates)
			e.PruneRate = float64(pruned) / float64(candidates)
		}
		entries = append(entries, e)
		fmt.Fprintf(&sb, "%-8d %8.2fms %12.2f %10.0f %7.1f%% %7.1f%%\n",
			size, e.StoreOpenMS, e.OpenUSPerSeries, e.QPS, 100*e.SketchPruneRate, 100*e.PruneRate)
	}
	return sb.String(), entries, nil
}

// scaleOpenGraceMS is the absolute slack added on top of the relative
// open-time regression budget, for the same reason as serveP99GraceMS:
// the smallest points open in a few milliseconds, where host scheduling
// noise would flake a pure ratio.
const scaleOpenGraceMS = 5.0

// scalePruneSlack is how far (absolute) the stage-0 sketch prune rate
// may fall below its committed baseline. The rate is deterministic given
// the workload seed, so the slack only absorbs workload evolution, not
// noise.
const scalePruneSlack = 0.10

// checkScaleBaseline compares the run against a committed baseline:
// entries are matched by (dataset, series) and the check fails if any
// store-open time exceeds baseline*maxFactor + scaleOpenGraceMS, or any
// stage-0 prune rate drops more than scalePruneSlack below its baseline.
// Unmatched entries are skipped so workload evolution does not break the
// gate; maxFactor 0 disables it.
func checkScaleBaseline(entries []scaleEntry, baselinePath string, maxFactor float64) error {
	if baselinePath == "" || maxFactor <= 0 {
		return nil
	}
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading scale baseline: %w", err)
	}
	var baseline []scaleEntry
	if err := json.Unmarshal(data, &baseline); err != nil {
		return fmt.Errorf("decoding scale baseline %s: %w", baselinePath, err)
	}
	type key struct {
		dataset string
		series  int
	}
	base := make(map[key]scaleEntry, len(baseline))
	for _, b := range baseline {
		base[key{b.Dataset, b.Series}] = b
	}
	matched := 0
	for _, e := range entries {
		b, ok := base[key{e.Dataset, e.Series}]
		if !ok {
			continue
		}
		matched++
		if allowed := b.StoreOpenMS*maxFactor + scaleOpenGraceMS; e.StoreOpenMS > allowed {
			return fmt.Errorf("store open regression: %s %d series: %.2fms > %.2fms (baseline %.2fms x %.2f + %.0fms grace)",
				e.Dataset, e.Series, e.StoreOpenMS, allowed, b.StoreOpenMS, maxFactor, scaleOpenGraceMS)
		}
		if floor := b.SketchPruneRate - scalePruneSlack; e.SketchPruneRate < floor {
			return fmt.Errorf("stage-0 prune regression: %s %d series: sketch prune rate %.1f%% < %.1f%% (baseline %.1f%% - %.0f%% slack)",
				e.Dataset, e.Series, 100*e.SketchPruneRate, 100*floor, 100*b.SketchPruneRate, 100*scalePruneSlack)
		}
	}
	if matched == 0 {
		return fmt.Errorf("scale baseline %s matched no entries of this run", baselinePath)
	}
	fmt.Printf("store open within %.0f%% of baseline and stage-0 prune rate holding on %d matched points\n\n", 100*(maxFactor-1), matched)
	return nil
}
