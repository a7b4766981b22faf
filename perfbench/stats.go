package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported high
// percentile. A tail over fewer samples is one or two unlucky
// requests, so the run fails instead of printing it.
const minTail = 10

// samples is one class's raw latencies. Lanes keep their own and merge
// after the load stops, so recording is a slice append with no lock.
type samples []time.Duration

// sorted returns a sorted copy.
func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rank is the 1-based nearest-rank index of quantile q in n samples:
// the smallest r with r/n >= q.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	return s[rank(len(s), q)-1]
}

// tail reports how many samples lie beyond the nearest-rank q-quantile.
func tail(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// checkedQuantile returns the q-quantile of sorted s in microseconds,
// or an error when fewer than minTail samples lie beyond it.
func checkedQuantile(name string, s samples, q float64) (float64, error) {
	if len(s) == 0 {
		return 0, fmt.Errorf("%s: no samples", name)
	}
	if q > 0.5 && tail(len(s), q) < minTail {
		return 0, fmt.Errorf("%s: only %d of %d samples beyond p%g; run longer",
			name, tail(len(s), q), len(s), q*100)
	}
	return us(s.quantile(q)), nil
}

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur is median over durations, in microseconds.
func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = us(d)
	}
	return median(xs)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// frac returns num/den, or 0 when den is 0 (the layer did no such work).
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
