package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything: with fewer samples the benchmark
// reports the highest percentile that still has this many beyond it.
const minBeyond = 10

// tail is a latency summary: median, the tail percentile actually
// reported, and the sample count it rests on.
type tail struct {
	N      int
	P50    float64
	Tail   float64 // value at percentile Q
	Q      float64 // the percentile reported as the tail (<= the one asked for)
	Sorted []float64
}

// summarize sorts samples (in any unit) and picks the median and the
// tail percentile: want (e.g. 0.99) when at least minBeyond samples lie
// above it, else the highest percentile with minBeyond samples beyond.
// Fewer than minBeyond+1 samples give no tail (Q = 0, Tail = max).
func summarize(samples []float64, want float64) tail {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := tail{N: len(s), Sorted: s}
	if len(s) == 0 {
		return t
	}
	t.P50 = median(s)
	i, q := tailIndex(len(s), want)
	if i < 0 {
		t.Tail = s[len(s)-1]
		return t
	}
	t.Tail, t.Q = s[i], q
	return t
}

// tailIndex returns the sorted-sample index reported for percentile
// want among n samples, and the percentile that index stands for.
// Nearest rank: index ceil(want*n)-1. If fewer than minBeyond samples
// lie beyond it the index drops to n-1-minBeyond, the highest rank with
// minBeyond samples above. Returns -1 when n <= minBeyond.
func tailIndex(n int, want float64) (int, float64) {
	if n <= minBeyond {
		return -1, 0
	}
	i := int(math.Ceil(want*float64(n))) - 1
	if n-1-i < minBeyond {
		i = n - 1 - minBeyond
	}
	return i, float64(i+1) / float64(n)
}

// median of an ascending slice (mean of the middle two for even sizes).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
