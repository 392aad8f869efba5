package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"sdtw"
	"sdtw/internal/band"
	"sdtw/internal/core"
	"sdtw/internal/lower"
	"sdtw/internal/serve"
	"sdtw/internal/sketch"
	"sdtw/internal/store"
)

// The per-layer numbers come from two sources: spans the benchmark
// records around its own calls into a layer (the HTTP round trip, the
// serving handler, direct ShardedIndex/Index/Engine/Store/kernel calls),
// and counters the public API already returns (SearchStats, HubStats,
// StoreStats, /v1/stats). Nothing inside the program is instrumented.

const sketchWidth = sdtw.DefaultSketchWidth

// searchLayers measures the search-side layers of env: the serving
// numbers from the traced traffic, then direct calls into the sharded
// index, a flat index, the bound kernels, the engine and a scratch
// store over the same collection.
func searchLayers(env *searchEnv, traffic *trafficOut, serveStats serve.StatsResponse, rec *Recorder) (map[string]float64, error) {
	m := map[string]float64{}
	ctx := context.Background()

	// serve: handler span minus the reported search wall time, and the
	// client round trip minus the handler span.
	spans := rec.Spans()
	handler := map[int64]Span{}
	for _, s := range spans {
		if s.Name == "serve.handler" {
			handler[s.Parent] = s
		}
	}
	self := SelfTimes(spans)
	var selfMS, transportMS, wallMS []float64
	for _, s := range spans {
		if s.Name != "client.search" {
			continue
		}
		h, ok := handler[s.ID]
		wall, okWall := traffic.wallMS[s.Req]
		if !ok || !okWall {
			continue
		}
		selfMS = append(selfMS, ms(h.Dur())-wall)
		transportMS = append(transportMS, ms(self[s.ID]))
		wallMS = append(wallMS, wall)
	}
	m["serve.self_ms"] = median(selfMS)
	m["serve.transport_ms"] = median(transportMS)
	m["serve.rejected"] = float64(serveStats.Rejected)
	m["shard.search_ms"] = median(wallMS)
	sizes := env.ix.ShardSizes()
	maxSize, total := 0, 0
	for _, s := range sizes {
		maxSize, total = max(maxSize, s), total+s
	}
	m["shard.skew"] = ratio(float64(maxSize), float64(total)/float64(len(sizes)))

	// retrieve: the full SearchStats of direct sharded searches.
	queries := env.queries[:min(len(env.queries), 16)]
	var st sdtw.SearchStats
	for _, q := range queries {
		sp := rec.Start("shard.Search", 0, rec.NewReq())
		_, s, err := env.ix.Search(ctx, q, sdtw.WithK(env.k))
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("direct search: %w", err)
		}
		st.Merge(s)
	}
	nq := float64(len(queries))
	m["retrieve.prune_rate"] = st.PruneRate()
	m["retrieve.pruned_sketch"] = float64(st.PrunedSketch) / nq
	m["retrieve.pruned_kim"] = float64(st.PrunedKim) / nq
	m["retrieve.pruned_keogh"] = float64(st.PrunedKeogh) / nq
	m["retrieve.evaluated"] = float64(st.Evaluated) / nq
	m["retrieve.abandon_rate"] = st.AbandonRate()
	m["retrieve.cells"] = float64(st.Cells) / nq
	m["retrieve.cells_gain"] = st.CellsGain()
	m["retrieve.bound_busy_ms"] = ms(st.BoundTime) / nq
	m["retrieve.match_busy_ms"] = ms(st.MatchTime) / nq
	m["retrieve.dp_busy_ms"] = ms(st.DPTime) / nq
	m["dtw.cells_per_us"] = ratio(float64(st.Cells), float64(st.DPTime)/float64(time.Microsecond))
	m["retrieve.build_s"] = median(env.buildS)
	n := env.data[0].Len()
	candidates := float64(st.Candidates) / nq
	afterSketch := candidates - m["retrieve.pruned_sketch"]
	afterKim := afterSketch - m["retrieve.pruned_kim"]
	// Bytes the cascade reads per query: every sketch, the endpoints of
	// sketch survivors, the envelopes of Kim survivors and the values of
	// evaluated candidates (computed from sizes, not measured traffic).
	m["lower.bytes_per_query"] = 8 * (candidates*2*sketchWidth + afterSketch*2 + afterKim*2*float64(n) + m["retrieve.evaluated"]*float64(n))

	// retrieve.other_ms: a flat single-worker search's wall time not
	// covered by the bound, match and DP stages.
	sp := rec.Start("retrieve.build_flat", 0, 0)
	flat, err := env.newFlat()
	sp.End()
	if err != nil {
		return nil, err
	}
	var other []float64
	for _, q := range queries {
		sp := rec.Start("index.Search", 0, rec.NewReq())
		_, s, err := flat.Search(ctx, q, sdtw.WithK(env.k), sdtw.WithWorkers(1))
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("flat search: %w", err)
		}
		other = append(other, ms(s.WallTime-s.BoundTime-s.MatchTime-s.DPTime))
	}
	m["retrieve.other_ms"] = mean(other)
	flat = nil

	if err := kernelLayers(env, queries, m, rec); err != nil {
		return nil, err
	}
	if err := engineLayers(env, m, rec); err != nil {
		return nil, err
	}

	// shard.write_ms: direct Add/Remove of fresh series (on a store-backed
	// index they leave tombstones that storeLayers then counts).
	var writeMS []float64
	for _, s := range env.fresh[:min(len(env.fresh), 20)] {
		for _, step := range []struct {
			name string
			call func() error
		}{{"shard.Add", func() error { return env.ix.Add(s) }}, {"shard.Remove", func() error { return env.ix.Remove(s.ID) }}} {
			sp := rec.Start(step.name, 0, 0)
			t0 := time.Now()
			err := step.call()
			writeMS = append(writeMS, ms(time.Since(t0)))
			sp.End()
			if err != nil {
				return nil, fmt.Errorf("direct %s: %w", step.name, err)
			}
		}
	}
	m["shard.write_ms"] = mean(writeMS)
	if err := storeLayers(env, m, rec); err != nil {
		return nil, err
	}
	m["input.anon_share"] = ratio(float64(traffic.anon), float64(traffic.anon+traffic.named))
	return m, nil
}

// kernelLayers times the stage-0 sketch bound, LB_Kim and LB_Keogh per
// call over (a sample of) the collection.
func kernelLayers(env *searchEnv, queries []sdtw.Series, m map[string]float64, rec *Recorder) error {
	cands := env.data[:min(len(env.data), 20000)]
	n := cands[0].Len()
	r := env.radius
	if r < 0 {
		r = band.EnvelopeRadius(core.DefaultOptions().Band, n)
	}
	envs := make([]lower.Envelope, len(cands))
	sks := make([]sketch.Sketch, len(cands))
	for i, c := range cands {
		envs[i] = lower.NewEnvelope(c.Values, r)
		sk, err := sketch.FromEnvelope(envs[i], sketchWidth)
		if err != nil {
			return fmt.Errorf("sketch: %w", err)
		}
		sks[i] = sk
	}
	sink := 0.0
	timeLoop := func(name string, body func(q []float64, qm []float64, i int) float64) float64 {
		var total time.Duration
		var qm []float64
		for _, q := range queries {
			qm, _ = sketch.Means(q.Values, sketchWidth, qm) // width >= 1, query non-empty
			sp := rec.Start(name, 0, 0)
			t0 := time.Now()
			for i := range cands {
				sink += body(q.Values, qm, i)
			}
			total += time.Since(t0)
			sp.End()
		}
		return float64(total) / float64(len(queries)*len(cands))
	}
	m["sketch.lbpaa_ns"] = timeLoop("sketch.LBPAA", func(_, qm []float64, i int) float64 {
		return sketch.LBPAA(qm, sks[i], n)
	})
	m["lower.kim_ns"] = timeLoop("lower.Kim", func(q, _ []float64, i int) float64 {
		v, _ := lower.Kim(q, cands[i].Values, nil) // equal non-empty lengths: cannot fail
		return v
	})
	m["lower.keogh_ns"] = timeLoop("lower.Keogh", func(q, _ []float64, i int) float64 {
		v, _, _ := lower.KeoghUnder(q, envs[i], math.Inf(1), nil) // equal lengths: cannot fail
		return v
	})
	if math.IsNaN(sink) {
		return fmt.Errorf("bound kernels returned NaN")
	}
	return nil
}

// engineLayers times Engine.DistanceUnderSeries per pair for anonymous
// queries and for ID'd queries (collection series), against candidates
// whose features are already cached.
func engineLayers(env *searchEnv, m map[string]float64, rec *Recorder) error {
	engine := sdtw.NewEngine(sdtw.DefaultOptions())
	cands := env.data[:min(len(env.data), 40)]
	if err := engine.Warm(cands); err != nil {
		return fmt.Errorf("engine warm: %w", err)
	}
	var qs []sdtw.Series
	for _, q := range env.queries {
		if q.ID == "" && len(qs) < 3 {
			qs = append(qs, q)
		}
	}
	for _, s := range env.data[len(cands) : len(cands)+3] {
		qs = append(qs, s)
	}
	// ExtractTime includes the cache lookup, so a pair counts as an
	// extraction when it took at least a tenth of an uncached one.
	var solo []float64
	for _, q := range qs {
		t0 := time.Now()
		if _, err := sdtw.ExtractFeatures(q.Values, sdtw.DefaultOptions()); err != nil {
			return fmt.Errorf("extracting features: %w", err)
		}
		solo = append(solo, ms(time.Since(t0)))
	}
	cut := 0.1 * median(solo)
	var extract, match, dp time.Duration
	extractions, pairs := 0, 0
	for _, q := range qs {
		sp := rec.Start("core.DistanceUnderSeries", 0, 0)
		for _, c := range cands {
			res, err := engine.DistanceUnderSeries(q, c, math.Inf(1))
			if err != nil {
				return fmt.Errorf("engine distance: %w", err)
			}
			extract += res.ExtractTime
			match += res.MatchTime
			dp += res.DPTime
			if ms(res.ExtractTime) >= cut {
				extractions++
			}
			pairs++
		}
		sp.End()
	}
	m["core.extract_ms"] = ms(extract) / float64(pairs)
	m["core.match_ms"] = ms(match) / float64(pairs)
	m["core.dp_ms"] = ms(dp) / float64(pairs)
	m["core.extract_per_query"] = float64(extractions) / float64(len(qs))
	return nil
}

// storeLayers reports the index store's shape and times direct
// Store.Append / Store.Tombstone calls on a scratch store of the same
// record shape. An in-RAM index is saved and reopened once to measure
// save and open.
func storeLayers(env *searchEnv, m map[string]float64, rec *Recorder) error {
	n := env.data[0].Len()
	if env.storeDir != "" {
		m["store.save_s"] = median(env.saveS)
		m["store.open_s"] = median(env.openS)
		if err := storeShape(env.ix, env.storeDir, n, m); err != nil {
			return err
		}
	} else {
		dir := filepath.Join(env.scratch, "probe-store")
		sp := rec.Start("store.SaveStore", 0, 0)
		t0 := time.Now()
		err := env.ix.SaveStore(dir)
		m["store.save_s"] = time.Since(t0).Seconds()
		sp.End()
		if err != nil {
			return fmt.Errorf("save store: %w", err)
		}
		sp = rec.Start("store.Open", 0, 0)
		t0 = time.Now()
		opened, err := env.open(dir)
		m["store.open_s"] = time.Since(t0).Seconds()
		sp.End()
		if err != nil {
			return fmt.Errorf("open store: %w", err)
		}
		err = storeShape(opened, dir, n, m)
		if cerr := opened.CloseStore(); err == nil {
			err = cerr
		}
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		if err != nil {
			return err
		}
	}

	dir := filepath.Join(env.scratch, "scratch-store")
	st, err := store.Create(dir, store.Config{Fingerprint: "perfbench-scratch", SketchWidth: sketchWidth})
	if err != nil {
		return fmt.Errorf("scratch store: %w", err)
	}
	// The scratch store is thrown away when the sweep ends.
	defer os.RemoveAll(dir)
	defer st.Close()
	records := env.fresh[:min(len(env.fresh), 50)]
	var appendMS, tombMS []float64
	for i, s := range records {
		e := lower.NewEnvelope(s.Values, max(env.radius, 1))
		sk, err := sketch.FromEnvelope(e, sketchWidth)
		if err != nil {
			return fmt.Errorf("scratch sketch: %w", err)
		}
		r := store.Record{ID: s.ID, Seq: uint64(i + 1), N: s.Len(), First: s.Values[0], Last: s.Values[s.Len()-1],
			Sketch: sk, Envelope: e, Values: s.Values}
		sp := rec.Start("store.Append", 0, 0)
		t0 := time.Now()
		err = st.Append(r)
		appendMS = append(appendMS, ms(time.Since(t0)))
		sp.End()
		if err != nil {
			return fmt.Errorf("scratch append: %w", err)
		}
	}
	for i, s := range records {
		sp := rec.Start("store.Tombstone", 0, 0)
		t0 := time.Now()
		err := st.Tombstone(s.ID, uint64(i+1))
		tombMS = append(tombMS, ms(time.Since(t0)))
		sp.End()
		if err != nil {
			return fmt.Errorf("scratch tombstone: %w", err)
		}
	}
	m["store.append_ms"] = mean(appendMS)
	m["store.tombstone_ms"] = mean(tombMS)
	return nil
}

// storeShape reads a store-backed index's segment counters and the
// directory's size relative to the raw values it holds.
func storeShape(ix *sdtw.ShardedIndex, dir string, n int, m map[string]float64) error {
	ss, err := ix.StoreStats()
	if err != nil {
		return fmt.Errorf("store stats: %w", err)
	}
	var bytes int64
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			bytes += info.Size()
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("sizing store: %w", err)
	}
	m["store.space_amp"] = ratio(float64(bytes), float64(ss.LiveRecords*n*8))
	m["store.segments"] = float64(ss.Segments)
	m["store.tombstones"] = float64(ss.Tombstones)
	return nil
}

// hubLayers derives the hub-side layers from one traced fleet pass.
func hubLayers(in fleetInputs, out *fleetOut) map[string]float64 {
	st := out.stats
	return map[string]float64{
		"hub.push_us":                  median(slices.Clone(out.pushUS)),
		"hub.skip_rate":                ratio(float64(st.Skipped), float64(st.Skipped+st.Appends)),
		"hub.backpressure_retries":     float64(out.retries),
		"hub.backlog_points":           float64(out.backlog),
		"hub.generator_lag_ms":         quantile(slices.Clone(out.lagMS), 0.95),
		"hub.matches":                  float64(st.Matches),
		"dtw.spring_appends_per_point": ratio(float64(st.Appends), float64(st.Processed)),
		"input.skippable_share":        skippableShare(in),
	}
}
