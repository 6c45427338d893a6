package main

import (
	"errors"
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending, so percentile must sort
	}
	return s
}

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64 // 0: must error
	}{
		{1000, 0.99, 990},
		{999, 0.99, 0},
		{200, 0.95, 190},
		{199, 0.95, 0},
		{20, 0.5, 10},
		{19, 0.5, 0},
		{0, 0.5, 0},
	} {
		got, err := percentile(seq(c.n), c.q)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want an error", c.q*100, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", c.q*100, c.n, got, err, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g", got)
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var a, b tally
	a.record(opRecover, 2*time.Millisecond, nil)
	a.record(opRecover, time.Millisecond, errors.New("429 Too Many Requests"))
	b.record(opRecover, 3*time.Millisecond, nil)
	b.record(opUpload, 0, errors.New("check failed"))
	a.merge(&b)
	att, failed := a.totals()
	if att != 4 || failed != 2 || a.failed[opRecover] != 1 || a.failed[opUpload] != 1 {
		t.Fatalf("attempted %d failed %d (%v)", att, failed, a.failed)
	}
	if len(a.lat[opRecover]) != 2 || len(a.lat[opUpload]) != 0 {
		t.Fatalf("failed ops joined the latency samples: %v", a.lat)
	}
}
