package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples. It errors
// when fewer than minBeyond samples lie beyond that rank: such a
// percentile is one or two outliers, not a measurement.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minBeyond, max(n-rank, 0), n)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle of samples (mean of the two middle values when even),
// or NaN when there are none.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tally is one connection's record of a phase: per-op latencies of the
// ops that succeeded, and counts of every op attempted and failed.
type tally struct {
	lat       [numOps][]float64 // ms, successful ops only
	attempted [numOps]int
	failed    [numOps]int
	errs      []string // first few failure reasons

	payload int64         // row payload bytes, request plus response
	rows    [numOps]int64 // rows of successful ops, for the daemon counter cross-check
	jobs    []jobTimes
}

// jobTimes are one cluster job's daemon-side timestamps as the client saw them.
type jobTimes struct {
	latency                    time.Duration // submit to result fetched
	queueWait, run, observeLag float64       // ms
}

// record counts one op: err nil means it succeeded (status 2xx and every
// output check passed), and then its latency joins the samples.
func (t *tally) record(o op, d time.Duration, err error) {
	t.attempted[o]++
	if err != nil {
		t.failed[o]++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, fmt.Sprintf("%s: %v", o, err))
		}
		return
	}
	t.lat[o] = append(t.lat[o], float64(d)/float64(time.Millisecond))
}

// merge folds o into t.
func (t *tally) merge(o *tally) {
	for i := range t.lat {
		t.lat[i] = append(t.lat[i], o.lat[i]...)
		t.attempted[i] += o.attempted[i]
		t.failed[i] += o.failed[i]
		t.rows[i] += o.rows[i]
	}
	t.errs = append(t.errs, o.errs...)
	t.payload += o.payload
	t.jobs = append(t.jobs, o.jobs...)
}

func (t *tally) totals() (attempted, failed int) {
	for i := range t.attempted {
		attempted += t.attempted[i]
		failed += t.failed[i]
	}
	return attempted, failed
}
