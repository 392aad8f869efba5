package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sdtw"
	"sdtw/internal/serve"
)

// Workload shapes.
const (
	shards        = 2
	windowN       = 100_000
	windowLen     = 128
	windowRadius  = 6
	traceN        = 500 // 4 classes of 125
	fleetStreams  = 1000
	fleetQueries  = 100
	minOps        = 200 // so that at least ten samples lie beyond p95
	checkedWindow = 4   // queries brute-forced per windowed run
	checkedTrace  = 6   // 4 anonymous, 2 ID'd
	checkedFleet  = 8   // streams replayed through one Monitor each
)

// config is one invocation of the benchmark.
type config struct {
	workload  string
	seed      int64
	dur       time.Duration
	trace     bool
	scratch   string // per-run directory inside the checkout
	fleetRate float64
	setups    int
	// rec records the spans of a traced run (nil when untraced): set-up,
	// the traced load pass and the layer sweep.
	rec *Recorder
}

// outcome is one workload pass: the end-to-end numbers, the per-layer
// numbers (traced passes only) and the operation accounting.
type outcome struct {
	tally
	e2e    map[string]float64
	layers map[string]float64
	notes  []string
	spans  []Span
}

// searchEnv is a search workload's index and inputs.
type searchEnv struct {
	ix       *sdtw.ShardedIndex
	data     []sdtw.Series // released after set-up in untraced runs
	queries  []sdtw.Series
	fresh    []sdtw.Series // series the layer sweep adds and removes again
	k        int
	radius   int // -1 for the sDTW engine backend
	ref      *reference
	storeDir string // "" for an in-RAM index
	scratch  string
	buildS   []float64
	saveS    []float64
	openS    []float64
	setupS   []float64
	newFlat  func() (*sdtw.Index, error)
	open     func(dir string) (*sdtw.ShardedIndex, error)
}

// setupWindowStore builds the windowed sharded index, writes it with
// SaveStore and reopens it from the store, cfg.setups times; the last
// one serves.
func setupWindowStore(env *searchEnv, setups int, rec *Recorder) error {
	for i := 0; i < setups; i++ {
		dir := filepath.Join(env.scratch, fmt.Sprintf("store-%d", i))
		runtime.GC()
		t0 := time.Now()
		sp := rec.Start("setup.NewShardedWindowedIndex", 0, 0)
		mem, err := sdtw.NewShardedWindowedIndex(env.data, shards, env.radius)
		sp.End()
		if err != nil {
			return fmt.Errorf("building index: %w", err)
		}
		t1 := time.Now()
		sp = rec.Start("setup.SaveStore", 0, 0)
		err = mem.SaveStore(dir)
		sp.End()
		if err != nil {
			return fmt.Errorf("saving store: %w", err)
		}
		mem = nil
		t2 := time.Now()
		sp = rec.Start("setup.OpenShardedWindowedIndex", 0, 0)
		ix, err := sdtw.OpenShardedWindowedIndex(dir)
		sp.End()
		if err != nil {
			return fmt.Errorf("opening store: %w", err)
		}
		t3 := time.Now()
		env.buildS = append(env.buildS, t1.Sub(t0).Seconds())
		env.saveS = append(env.saveS, t2.Sub(t1).Seconds())
		env.openS = append(env.openS, t3.Sub(t2).Seconds())
		env.setupS = append(env.setupS, t3.Sub(t0).Seconds())
		if i < setups-1 {
			if err := ix.CloseStore(); err != nil {
				return fmt.Errorf("closing store: %w", err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return fmt.Errorf("removing store: %w", err)
			}
			continue
		}
		env.ix, env.storeDir = ix, dir
	}
	return nil
}

// windowEnv generates a windowed store-backed workload of n series.
func windowEnv(cfg config, n int) (*searchEnv, error) {
	in := genWindow(cfg.seed, n, windowLen, 64, 64)
	env := &searchEnv{data: in.data, queries: in.queries, fresh: in.fresh, k: 1, radius: windowRadius, scratch: cfg.scratch}
	env.newFlat = func() (*sdtw.Index, error) { return sdtw.NewWindowedIndex(env.data, env.radius) }
	env.open = func(dir string) (*sdtw.ShardedIndex, error) { return sdtw.OpenShardedWindowedIndex(dir) }
	ref, err := windowedReference(in.queries[:checkedWindow], in.data, env.k, env.radius, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	env.ref = ref
	if err := setupWindowStore(env, cfg.setups, cfg.rec); err != nil {
		return nil, err
	}
	return env, nil
}

// traceEnv generates knn-sdtw-trace and builds its in-RAM index.
func traceEnv(cfg config) (*searchEnv, error) {
	in := genTrace(cfg.seed, traceN/4, 240)
	env := &searchEnv{data: in.data, queries: in.queries, k: 5, radius: -1, scratch: cfg.scratch}
	opts := sdtw.DefaultOptions()
	env.newFlat = func() (*sdtw.Index, error) { return sdtw.NewIndex(env.data, opts) }
	env.open = func(dir string) (*sdtw.ShardedIndex, error) { return sdtw.OpenShardedIndex(dir, opts) }
	for i, q := range in.queries {
		if q.ID == "" {
			env.fresh = append(env.fresh, sdtw.NewSeries(fmt.Sprintf("fresh%06d", i), 0, q.Values))
		}
	}
	ref, err := engineReference(in.queries[:checkedTrace], in.data, env.k, runtime.GOMAXPROCS(0), opts)
	if err != nil {
		return nil, err
	}
	env.ref = ref
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		sp := cfg.rec.Start("setup.NewShardedIndex", 0, 0)
		t0 := time.Now()
		ix, err := sdtw.NewShardedIndex(in.data, shards, opts)
		d := time.Since(t0).Seconds()
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("building index: %w", err)
		}
		env.buildS = append(env.buildS, d)
		env.setupS = append(env.setupS, d)
		env.ix = ix
	}
	return env, nil
}

// heapMB is the live Go heap after a collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func fetchStats(url string) (serve.StatsResponse, error) {
	var st serve.StatsResponse
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		return st, fmt.Errorf("GET /v1/stats: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return st, nil
}

// runSearch serves env over HTTP and drives the closed-loop load once
// untraced; a traced run then repeats the load traced and measures the
// layers.
func runSearch(cfg config, env *searchEnv) (*outcome, error) {
	defer func() {
		if env.storeDir != "" {
			_ = env.ix.CloseStore() // the run's data is discarded next
		}
	}()
	if !cfg.trace {
		env.data = nil // the benchmark's inputs are released before mem_mb
	}
	memMB := heapMB()
	traffic := func(rec *Recorder) (*trafficOut, serve.StatsResponse, error) {
		srv, err := startServer(env.ix, rec, nil)
		if err != nil {
			return nil, serve.StatsResponse{}, err
		}
		t := &searchTraffic{url: srv.url, queries: env.queries, k: env.k, ref: env.ref, dur: cfg.dur, minOps: minOps, rec: rec}
		// Warm-up, untimed: a store-backed index faults the values of the
		// candidates a query evaluates in on first use, so every distinct
		// query is sent once before timing starts.
		warm := *t
		warm.ref, warm.rec, warm.dur, warm.minOps = nil, nil, 0, 4
		if env.storeDir != "" {
			warm.minOps = len(env.queries)
		}
		warm.run()
		out := t.run()
		st, err := fetchStats(srv.url)
		if serr := srv.stop(); err == nil {
			err = serr
		}
		return out, st, err
	}
	plain, _, err := traffic(nil)
	if err != nil {
		return nil, err
	}
	o := &outcome{
		e2e: map[string]float64{
			"setup_s":   median(env.setupS),
			"mem_mb":    memMB,
			"ops_per_s": plain.opsPerS(),
			"p50_ms":    quantile(plain.latMS, 0.5),
			"p95_ms":    quantile(plain.latMS, 0.95),
		},
		tally: plain.tally,
	}
	o.notes = append(o.notes, fmt.Sprintf("operations: %d completed in %.2fs; searches sent anonymous %d, with ID %d (anonymous share %.3f)",
		len(plain.latMS), plain.elapsed.Seconds(), plain.anon, plain.named, ratio(float64(plain.anon), float64(plain.anon+plain.named))))
	if !cfg.trace {
		return o, nil
	}
	rec := cfg.rec
	traced, st, err := traffic(rec)
	if err != nil {
		return nil, err
	}
	o.add(traced.tally)
	o.layers, err = searchLayers(env, traced, st, rec)
	if err != nil {
		return nil, err
	}
	addTraceLayers(o, traced.opsPerS(), quantile(traced.latMS, 0.5), quantile(traced.latMS, 0.95))
	return o, nil
}

// addTraceLayers reports the traced pass next to the untraced one; the
// ratios are the tracing overhead.
func addTraceLayers(o *outcome, opsPerS, p50, p95 float64) {
	o.layers["trace.ops_ratio"] = ratio(opsPerS, o.e2e["ops_per_s"])
	o.layers["trace.p50_ratio"] = ratio(p50, o.e2e["p50_ms"])
	o.notes = append(o.notes, fmt.Sprintf("traced pass: ops_per_s %.4g (untraced %.4g), p50_ms %.4g (untraced %.4g), p95_ms %.4g (untraced %.4g)",
		opsPerS, o.e2e["ops_per_s"], p50, o.e2e["p50_ms"], p95, o.e2e["p95_ms"]))
}

// fleetShape sizes the streams from the run length: phase 2 holds about
// half the run at the paced rate, and phase 1 replays replayShare times
// as many points, which at about that multiple of the rate also takes
// about half the run.
func fleetShape(streams int, rate float64, dur time.Duration) (points, split int) {
	batches := max(1, int(rate*dur.Seconds()/2/float64(streams)/fleetBatch+0.5))
	return (replayShare + 1) * batches * fleetBatch, replayShare * batches * fleetBatch
}

// runFleet drives the fleet workload: set-up (queries and streams
// registered) cfg.setups times, then one untraced pass, and in a traced
// run a second, traced pass on a fresh hub.
func runFleet(cfg config, streams, queries, minMatches int) (*outcome, error) {
	points, split := fleetShape(streams, cfg.fleetRate, cfg.dur)
	in := genFleet(cfg.seed, streams, points, queries)
	rng := rand.New(rand.NewSource(cfg.seed))
	check := rng.Perm(streams)[:min(streams, checkedFleet)]
	f := &fleetRun{in: in, split: split, rate: cfg.fleetRate, check: check}
	var setupS []float64
	var hub *sdtw.Hub
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		h, d, err := f.newHub(cfg.rec)
		if err != nil {
			return nil, err
		}
		hub = h
		setupS = append(setupS, d.Seconds())
	}
	memMB := heapMB()
	plain, err := f.run(hub)
	if err != nil {
		return nil, err
	}
	p50, p95, timed := plain.matchLatency()
	o := &outcome{
		e2e: map[string]float64{
			"setup_s":   median(setupS),
			"mem_mb":    memMB,
			"ops_per_s": plain.replayPerS,
			"p50_ms":    p50,
			"p95_ms":    p95,
		},
		tally: plain.tally,
	}
	o.notes = append(o.notes,
		fmt.Sprintf("streams %d x %d points, %d queries; phase 1 replays %d points per stream, phase 2 paces the rest at %.0f points/s",
			streams, points, queries, split, cfg.fleetRate),
		fmt.Sprintf("prefilter-skippable share of points %.3f; matches %d (%d timed in phase 2); backpressure retries %d",
			skippableShare(in), plain.stats.Matches, timed, plain.retries))
	if timed < minMatches {
		return nil, fmt.Errorf("only %d phase-2 matches timed, want >= %d", timed, minMatches)
	}
	if !cfg.trace {
		return o, nil
	}
	f.rec = cfg.rec
	hub, _, err = f.newHub(cfg.rec)
	if err != nil {
		return nil, err
	}
	traced, err := f.run(hub)
	if err != nil {
		return nil, err
	}
	o.add(traced.tally)
	o.layers = hubLayers(in, traced)
	tp50, tp95, _ := traced.matchLatency()
	addTraceLayers(o, traced.replayPerS, tp50, tp95)
	return o, nil
}

// runWorkload runs one named workload. In a traced run, layers the
// workload's own traffic does not reach are measured on a small probe of
// the other kind (a 5000-series windowed store for the fleet, a 64-stream
// fleet for the search workloads), so every run reports every layer.
func runWorkload(cfg config) (*outcome, error) {
	if cfg.trace {
		cfg.rec = NewRecorder()
	}
	if cfg.setups == 0 {
		// set-up is timed several times and reported as the median; the
		// 100k builds cost seconds each, the others a fraction of one.
		cfg.setups = 7
		if cfg.workload == "knn-window-100k" {
			cfg.setups = 3
		}
	}
	var o *outcome
	var err error
	switch cfg.workload {
	case "knn-window-100k":
		var env *searchEnv
		if env, err = windowEnv(cfg, windowN); err == nil {
			o, err = runSearch(cfg, env)
		}
	case "knn-sdtw-trace":
		var env *searchEnv
		if env, err = traceEnv(cfg); err == nil {
			o, err = runSearch(cfg, env)
		}
	case "fleet-1000x100":
		o, err = runFleet(cfg, fleetStreams, fleetQueries, minOps)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil || !cfg.trace {
		return o, err
	}
	probe := cfg
	probe.dur, probe.setups = 2*time.Second, 1
	var p *outcome
	var note string
	if cfg.workload == "fleet-1000x100" {
		note = "serve, shard, retrieve, lower, sketch, core and store come from a 5000-series windowed store probe"
		var env *searchEnv
		if env, err = windowEnv(probe, 5000); err == nil {
			p, err = runSearch(probe, env)
		}
	} else {
		note = "hub and dtw.spring_appends_per_point come from a 64-stream x 10-query fleet probe"
		probe.fleetRate = 40000
		p, err = runFleet(probe, 64, 10, 1)
	}
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	for k, v := range p.layers {
		if _, ok := o.layers[k]; !ok {
			o.layers[k] = v
		}
	}
	o.add(p.tally)
	o.notes = append(o.notes, "probe layers: "+note)
	o.spans = cfg.rec.Spans()
	o.layers["trace.spans"] = float64(len(o.spans))
	return o, nil
}
