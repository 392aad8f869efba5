package main

import (
	"fmt"
	"math"
	"math/rand"

	"sdtw"
)

// All inputs are generated here from the run's seed; the program under
// test only ever receives these values.

// randomWalks returns n random walks of the given length with IDs
// prefix-000000... (an empty prefix leaves the series anonymous).
func randomWalks(rng *rand.Rand, n, length int, prefix string) []sdtw.Series {
	out := make([]sdtw.Series, n)
	for i := range out {
		v := make([]float64, length)
		x := 0.0
		for j := range v {
			x += rng.NormFloat64()
			v[j] = x
		}
		id := ""
		if prefix != "" {
			id = fmt.Sprintf("%s%06d", prefix, i)
		}
		out[i] = sdtw.NewSeries(id, 0, v)
	}
	return out
}

// windowInputs is the generated input of a windowed workload.
type windowInputs struct {
	data    []sdtw.Series // the indexed collection
	queries []sdtw.Series // held-out anonymous queries
	fresh   []sdtw.Series // series the layer sweep adds and removes again
}

func genWindow(seed int64, n, length, queries, fresh int) windowInputs {
	rng := rand.New(rand.NewSource(seed))
	return windowInputs{
		data:    randomWalks(rng, n, length, "w"),
		queries: randomWalks(rng, queries, length, ""),
		fresh:   randomWalks(rng, fresh, length, "fresh"),
	}
}

// traceInputs is the generated input of knn-sdtw-trace: the collection
// and a query list in which two of every three queries are anonymous
// held-out series and the third is a "more like this" query (an indexed
// series' ID with its own values). Two thirds rather than half keep the
// median inside one latency mode: anonymous queries cost ~3x more today,
// and a 50/50 mix puts p50 in the gap between the two modes.
type traceInputs struct {
	data    []sdtw.Series
	queries []sdtw.Series
}

func genTrace(seed int64, perClass, queries int) traceInputs {
	data := sdtw.TraceDataset(sdtw.DatasetConfig{Seed: seed, SeriesPerClass: perClass}).Series
	held := sdtw.TraceDataset(sdtw.DatasetConfig{Seed: seed ^ 0x5eed, SeriesPerClass: (queries + 3) / 4}).Series
	rng := rand.New(rand.NewSource(seed + 1))
	rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
	out := make([]sdtw.Series, queries)
	for i := range out {
		if i%3 != 2 {
			out[i] = sdtw.NewSeries("", -1, held[i].Values)
		} else {
			out[i] = data[rng.Intn(len(data))]
		}
	}
	return traceInputs{data: data, queries: out}
}

// Fleet workload shape. Query values stay inside [0, ~3.5]; far
// excursions sit at +40, where the time-domain prefilter can skip every
// query's column advance, while in-band noise and planted warped query
// occurrences make the SPRING columns do real work.
const (
	fleetQueryLen  = 16
	fleetThreshold = 0.25
	fleetBatch     = 256
	fleetDeadLevel = 40.0
	// replayShare is phase 1's length in multiples of phase 2's, about
	// the ratio of replay throughput to the paced rate.
	replayShare = 6
)

type fleetInputs struct {
	queries []sdtw.Series
	streams [][]float64
	ids     []string
}

// genFleet builds the standing queries and every stream's points. Per
// chunk: 2/16 plant a warped query occurrence, 6/16 add in-band noise,
// 8/16 add a far excursion, so about half the points are skippable.
func genFleet(seed int64, streams, points, queries int) fleetInputs {
	rng := rand.New(rand.NewSource(seed))
	in := fleetInputs{
		queries: make([]sdtw.Series, queries),
		streams: make([][]float64, streams),
		ids:     make([]string, streams),
	}
	for q := range in.queries {
		amp := 0.5 + 3.0*rng.Float64()
		phase := rng.Float64() * math.Pi
		vals := make([]float64, fleetQueryLen)
		for j := range vals {
			vals[j] = amp * math.Abs(math.Sin(phase+math.Pi*float64(j)/float64(fleetQueryLen-1)))
		}
		in.queries[q] = sdtw.NewSeries(fmt.Sprintf("q%03d", q), 0, vals)
	}
	for s := range in.streams {
		data := make([]float64, 0, points+64)
		for len(data) < points {
			switch c := rng.Intn(16); {
			case c < 2:
				for _, v := range in.queries[rng.Intn(queries)].Values {
					data = append(data, v+0.01*rng.NormFloat64())
					if rng.Intn(8) == 0 {
						data = append(data, v)
					}
				}
			case c < 8:
				for i := rng.Intn(48); i >= 0; i-- {
					data = append(data, 0.05*rng.NormFloat64())
				}
			default:
				for i := rng.Intn(48); i >= 0; i-- {
					data = append(data, fleetDeadLevel+rng.Float64())
				}
			}
		}
		in.streams[s] = data[:points:points]
		in.ids[s] = fmt.Sprintf("s%04d", s)
	}
	return in
}

// skippableShare is the share of stream points outside every query's
// band: farther than sqrt(threshold) above the highest or below the
// lowest query value, so the prefilter may skip them for every query.
func skippableShare(in fleetInputs) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, q := range in.queries {
		for _, v := range q.Values {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	slack := math.Sqrt(fleetThreshold)
	skip, total := 0, 0
	for _, s := range in.streams {
		for _, v := range s {
			if v > hi+slack || v < lo-slack {
				skip++
			}
		}
		total += len(s)
	}
	return ratio(float64(skip), float64(total))
}
