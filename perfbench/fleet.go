package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sdtw"
)

// fleetRun is one pass of the streaming load over a fresh Hub: phase 1
// replays the first split points of every stream as fast as backpressure
// allows, phase 2 sends the rest as an open loop at rate points/s. Both
// phases push fleetBatch-point batches round-robin over the streams from
// one producer goroutine while one goroutine consumes Matches.
type fleetRun struct {
	in    fleetInputs
	split int     // phase-1 points per stream, a multiple of fleetBatch
	rate  float64 // phase-2 aggregate points per second
	// check lists the streams replayed through one Monitor each and
	// compared with the hub's matches.
	check []int
	rec   *Recorder
}

// fleetOut is what the producer, the consumer and the hub reported.
type fleetOut struct {
	tally
	replayPerS    float64     // median over phase-1 rounds, points per second
	matchMS       [][]float64 // per phase-2 slice: latency from due time to delivery
	retries       int
	backlog       int64
	lagMS, pushUS []float64
	stats         sdtw.HubStats
}

// matchLatency is the median over phase-2 slices of each slice's p50 and
// p95 match latency, and the number of matches timed.
func (o *fleetOut) matchLatency() (p50, p95 float64, timed int) {
	var p50s, p95s []float64
	for _, lat := range o.matchMS {
		if len(lat) == 0 {
			continue
		}
		p50s = append(p50s, quantile(lat, 0.5))
		p95s = append(p95s, quantile(lat, 0.95))
		timed += len(lat)
	}
	return median(p50s), median(p95s), timed
}

// newHub registers every query and stream: the fleet's set-up.
func (f *fleetRun) newHub(rec *Recorder) (*sdtw.Hub, time.Duration, error) {
	sp := rec.Start("setup.Hub", 0, 0)
	start := time.Now()
	hub := sdtw.NewHub(sdtw.Options{})
	for _, q := range f.in.queries {
		if err := hub.AddQuery(q.ID, q, sdtw.WithMatchThreshold(fleetThreshold), sdtw.WithMinGap(fleetQueryLen)); err != nil {
			return nil, 0, fmt.Errorf("hub AddQuery: %w", err)
		}
	}
	for _, id := range f.in.ids {
		if err := hub.AddStream(id); err != nil {
			return nil, 0, fmt.Errorf("hub AddStream: %w", err)
		}
	}
	d := time.Since(start)
	sp.End()
	return hub, d, nil
}

type received struct {
	m  sdtw.StreamMatch
	at time.Time
}

// run drives one hub through both phases and checks its matches.
func (f *fleetRun) run(hub *sdtw.Hub) (*fleetOut, error) {
	out := &fleetOut{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- hub.Run(ctx) }()

	// The consumer stores matches in fixed-size chunks: growing one slice
	// would stall it on ever larger copies, and every match queued behind
	// the stall would read as hub latency. While phase 2 runs it polls
	// instead of blocking, as the producer does while it waits for a due
	// time: on a VM an idle vCPU is descheduled, and waking it costs
	// milliseconds that depend on the host's other tenants, not on the hub.
	var got [][]received
	var paced atomic.Bool
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		chunk := make([]received, 0, 4096)
		for {
			var m sdtw.StreamMatch
			ok := true
			if paced.Load() {
				select {
				case m, ok = <-hub.Matches():
				default:
					runtime.Gosched()
					continue
				}
			} else {
				m, ok = <-hub.Matches()
			}
			if !ok {
				break
			}
			if len(chunk) == cap(chunk) {
				got = append(got, chunk)
				chunk = make([]received, 0, 4096)
			}
			chunk = append(chunk, received{m, time.Now()})
		}
		got = append(got, chunk)
	}()

	// The sampler tracks the backlog (accepted but unprocessed points).
	stopSampler := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				st := hub.Stats()
				out.backlog = max(out.backlog, st.Points-st.Processed)
			}
		}
	}()

	streams := len(f.in.streams)
	points := len(f.in.streams[0])
	due := make([][]time.Time, streams)
	for s := range due {
		due[s] = make([]time.Time, points/fleetBatch)
	}
	out.pushUS = make([]float64, 0, streams*points/fleetBatch)
	out.lagMS = make([]float64, 0, streams*(points-f.split)/fleetBatch)
	push := func(s, b int, paced bool) error {
		out.attempted++
		vals := f.in.streams[s][b*fleetBatch : (b+1)*fleetBatch]
		rejected := false
		for {
			sp := f.rec.Start("hub.PushBatch", 0, 0)
			t0 := time.Now()
			err := hub.PushBatch(f.in.ids[s], vals)
			out.pushUS = append(out.pushUS, float64(time.Since(t0))/float64(time.Microsecond))
			sp.End()
			if err == nil {
				return nil
			}
			if !errors.Is(err, sdtw.ErrHubBackpressure) {
				return fmt.Errorf("hub PushBatch: %w", err)
			}
			out.retries++
			if paced && !rejected {
				rejected = true
				out.fail(err)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	// drain waits until the hub has processed every accepted point, and
	// gives up if it stops making progress.
	var pushed int64
	drain := func() error {
		last, since := int64(-1), time.Now()
		for {
			p := hub.Stats().Processed
			if p >= pushed {
				return nil
			}
			if p != last {
				last, since = p, time.Now()
			} else if time.Since(since) > 30*time.Second {
				return fmt.Errorf("hub stalled at %d of %d points", p, pushed)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}

	// Phase 1 runs in rounds, one batch of every stream each, and reports
	// the median round: a round disturbed by something outside the
	// program does not set the figure.
	var perr error
	var rates []float64
	for b := 0; b < f.split/fleetBatch && perr == nil; b++ {
		start := time.Now()
		for s := 0; s < streams && perr == nil; s++ {
			due[s][b] = time.Now()
			if perr = push(s, b, false); perr == nil {
				pushed += fleetBatch
			}
		}
		if perr == nil {
			perr = drain()
		}
		rates = append(rates, ratio(float64(streams*fleetBatch), time.Since(start).Seconds()))
	}
	out.replayPerS = median(rates)

	// Phase 2 latencies are kept per slice of the schedule and reported
	// as the median slice, for the same reason as the phase-1 rounds.
	paced.Store(true)
	start := time.Now()
	span := time.Duration(float64(streams*(points-f.split)) / f.rate * float64(time.Second))
	slice := func(at time.Time) int { return min(int(at.Sub(start)*latencySlices/span), latencySlices-1) }
	sent := 0
	for b := f.split / fleetBatch; b < points/fleetBatch && perr == nil; b++ {
		for s := 0; s < streams && perr == nil; s++ {
			at := start.Add(time.Duration(float64(sent) / f.rate * float64(time.Second)))
			for time.Now().Before(at) {
				runtime.Gosched()
			}
			out.lagMS = append(out.lagMS, ms(time.Since(at)))
			due[s][b] = at
			if perr = push(s, b, true); perr == nil {
				pushed += fleetBatch
			}
			sent += fleetBatch
		}
	}
	if perr == nil {
		perr = drain()
	}
	paced.Store(false)
	close(stopSampler)
	sampler.Wait()

	// Flush closes Matches after the last match; on failure the deferred
	// cancel stops Run's workers.
	flushStart := time.Now()
	sp := f.rec.Start("hub.Flush", 0, 0)
	err := hub.Flush(ctx)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("hub Flush: %w", err)
	}
	<-consumed
	if err := <-runErr; err != nil {
		return nil, fmt.Errorf("hub Run: %w", err)
	}
	if perr != nil {
		return nil, perr
	}
	out.stats = hub.Stats()

	index := make(map[string]int, streams)
	for s, id := range f.in.ids {
		index[id] = s
	}
	byStream := make(map[int][]sdtw.StreamMatch)
	out.matchMS = make([][]float64, latencySlices)
	for _, r := range slices.Concat(got...) {
		s := index[r.m.Stream]
		byStream[s] = append(byStream[s], r.m)
		// A match is timed from the due time of the batch that let the hub
		// confirm it: the batch holding its last point, or a later batch
		// of the stream when SPRING needed the following points (then the
		// stream's own cadence, not the hub, would set the latency).
		// Matches confirmed by Flush (end of stream) are not timed.
		b := r.m.End / fleetBatch
		for b+1 < len(due[s]) && !due[s][b+1].IsZero() && !due[s][b+1].After(r.at) {
			b++
		}
		if b >= f.split/fleetBatch && r.at.Before(flushStart) {
			k := slice(due[s][b])
			out.matchMS[k] = append(out.matchMS[k], ms(r.at.Sub(due[s][b])))
		}
	}
	for _, s := range f.check {
		out.attempted++
		if err := checkStream(f.in, s, byStream[s]); err != nil {
			out.wrong++
			out.fail(err)
		}
	}
	return out, nil
}

// checkStream replays stream s through one Monitor holding every query
// (the single-stream reference) and compares the emitted matches.
func checkStream(in fleetInputs, s int, got []sdtw.StreamMatch) error {
	mon, err := sdtw.NewMonitor(in.queries, sdtw.Options{},
		sdtw.WithMatchThreshold(fleetThreshold), sdtw.WithMinGap(fleetQueryLen))
	if err != nil {
		return fmt.Errorf("reference monitor: %w", err)
	}
	want, err := mon.PushBatch(context.Background(), in.streams[s])
	if err != nil {
		return fmt.Errorf("reference monitor: %w", err)
	}
	tail, err := mon.Flush()
	if err != nil {
		return fmt.Errorf("reference monitor: %w", err)
	}
	want = append(want, tail...)
	type key struct {
		q          string
		start, end int
		dist       uint64
	}
	keys := func(n int, at func(int) key) []key {
		ks := make([]key, n)
		for i := range ks {
			ks[i] = at(i)
		}
		sort.Slice(ks, func(i, j int) bool {
			a, b := ks[i], ks[j]
			if a.end != b.end {
				return a.end < b.end
			}
			if a.start != b.start {
				return a.start < b.start
			}
			return a.q < b.q
		})
		return ks
	}
	w := keys(len(want), func(i int) key {
		return key{want[i].QueryID, want[i].Start, want[i].End, math.Float64bits(want[i].Distance)}
	})
	g := keys(len(got), func(i int) key {
		return key{got[i].Query, got[i].Start, got[i].End, math.Float64bits(got[i].Distance)}
	})
	if len(w) != len(g) {
		return fmt.Errorf("stream %s: hub emitted %d matches, monitor %d", in.ids[s], len(g), len(w))
	}
	for i := range w {
		if w[i] != g[i] {
			return fmt.Errorf("stream %s match %d: hub %+v, monitor %+v", in.ids[s], i, g[i], w[i])
		}
	}
	return nil
}
