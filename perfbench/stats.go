package main

import (
	"math"
	"sort"
	"time"
)

// rateSlices is how many slices a load pass is cut into for its median
// throughput.
const rateSlices = 5

// latencySlices is how many slices of its schedule the fleet's paced
// phase is cut into for its median latency percentiles.
const latencySlices = 12

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally counts a pass's operations and the failures among them: non-2xx
// replies, wrong answers and paced-phase backpressure rejections.
type tally struct {
	attempted, failed int
	wrong             int // failures that were wrong answers
	errs              []string
}

// fail records a failed operation, keeping the first few messages.
func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
