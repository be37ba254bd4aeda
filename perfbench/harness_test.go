package main

import (
	"bytes"
	"context"
	"testing"
	"time"
)

func TestTailIndexNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		index int
		q     float64
	}{
		{n: 10, index: -1},              // no percentile has ten samples beyond it
		{n: 11, index: 0, q: 1.0 / 11},  // only the minimum does
		{n: 100, index: 89, q: 0.90},    // p99 would have 0 beyond; p90 has 10
		{n: 1000, index: 989, q: 0.99},  // p99 has exactly 10 beyond
		{n: 5000, index: 4949, q: 0.99}, // p99 has 50 beyond
		{n: 500, index: 489, q: 489.0/500 + 0.002},
	}
	for _, c := range cases {
		i, q := tailIndex(c.n, 0.99)
		if i != c.index || (i >= 0 && q != c.q) {
			t.Errorf("tailIndex(%d, 0.99) = %d, %v; want %d, %v", c.n, i, q, c.index, c.q)
		}
		if i >= 0 && c.n-1-i < minBeyond {
			t.Errorf("n=%d: only %d samples beyond index %d", c.n, c.n-1-i, i)
		}
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // 100..1, unsorted
	}
	s := summarize(samples, 0.99)
	if s.N != 100 || s.P50 != 50.5 || s.Tail != 90 || s.Q != 0.90 {
		t.Errorf("summarize(1..100) = n %d p50 %v tail %v at %v; want 100, 50.5, 90 at 0.90", s.N, s.P50, s.Tail, s.Q)
	}
}

// countingCalls returns a next function handing out write calls, with
// an optional hook run before the k-th one is returned.
func countingCalls(hook func(k int)) func(int) *call {
	k := 0
	return func(int) *call {
		if hook != nil {
			hook(k)
		}
		k++
		return &call{kind: kindRun, session: "s", write: true}
	}
}

func TestOpenLoopLatencyCountsFromScheduledSend(t *testing.T) {
	const stall = 200 * time.Millisecond
	n := 0
	send := func(ctx context.Context, c *call) (int, []byte, error) {
		n++
		if n == 3 {
			time.Sleep(stall) // the system under test stalls on one request
		}
		return 200, nil, nil
	}
	// 100 requests/s: one due every 10ms. The stall holds the
	// connection while about 20 later requests fall due; each must be
	// charged the wait from its own due time, not from when it left.
	st := runPhase(context.Background(), send, countingCalls(nil), phase{name: "t", rates: []float64{100}, dur: 600 * time.Millisecond})
	if st.attempted < 40 {
		t.Fatalf("attempted %d requests, want about 60", st.attempted)
	}
	lat := st.writeMS
	if lat[2] < ms(stall)*0.9 {
		t.Errorf("stalled request latency %.1fms, want >= %.0fms", lat[2], ms(stall)*0.9)
	}
	// The request due 10ms after the stalled one left ~190ms late.
	if lat[3] < ms(stall)*0.8 {
		t.Errorf("request queued behind the stall: latency %.1fms, want about %.0fms (timed from its due time)", lat[3], ms(stall)-10)
	}
	// Requests due after the backlog cleared are fast again.
	if last := lat[len(lat)-1]; last > 20 {
		t.Errorf("last request latency %.1fms; the backlog never cleared", last)
	}
	// The stall was the server's, not the generator's: it sent every
	// request as soon as it could.
	if s := summarize(st.lateMS, 0.99); s.Tail > 20 {
		t.Errorf("generator lateness tail %.1fms, want near 0 when only the server stalls", s.Tail)
	}
}

func TestGeneratorLatenessIsReported(t *testing.T) {
	const stall = 80 * time.Millisecond
	send := func(ctx context.Context, c *call) (int, []byte, error) { return 200, nil, nil }
	next := countingCalls(func(k int) {
		if k == 5 {
			time.Sleep(stall) // the generator itself falls behind
		}
	})
	st := runPhase(context.Background(), send, next, phase{name: "t", rates: []float64{100}, dur: 300 * time.Millisecond})
	s := summarize(st.lateMS, 0.99)
	if max := s.Sorted[len(s.Sorted)-1]; max < ms(stall)*0.8 {
		t.Errorf("max generator lateness %.1fms, want about %.0fms", max, ms(stall))
	}
	if len(st.lateMS) != st.attempted {
		t.Errorf("%d lateness samples for %d requests", len(st.lateMS), st.attempted)
	}
}

func TestClosedLoopRecordsNoLateness(t *testing.T) {
	send := func(ctx context.Context, c *call) (int, []byte, error) {
		time.Sleep(time.Millisecond)
		return 200, nil, nil
	}
	st := runPhase(context.Background(), send, countingCalls(nil), phase{name: "t", rates: []float64{0}, dur: 50 * time.Millisecond})
	if st.attempted == 0 || len(st.lateMS) != 0 {
		t.Errorf("closed loop: %d requests, %d lateness samples; want some requests and none", st.attempted, len(st.lateMS))
	}
}

// scriptBytes renders a workload's first calls as the bytes psmd would
// receive.
func scriptBytes(t *testing.T, w traffic, calls int) []byte {
	t.Helper()
	var b bytes.Buffer
	emit := func(c *call) {
		m, p := c.route()
		b.WriteString(m + " " + p + "\n")
		b.Write(c.body)
		b.WriteByte('\n')
	}
	for _, c := range w.initial() {
		emit(c)
	}
	for i := 0; i < calls; i++ {
		c := w.next(i % 2)
		if c == nil {
			t.Fatalf("script exhausted after %d calls", i)
		}
		emit(c)
	}
	return b.Bytes()
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	build := map[string]func(seed int64) traffic{
		"fraud-stream": func(seed int64) traffic { return newFraud(seed, 2, 8) },
		"manners-durable": func(seed int64) traffic {
			m, err := newManners(seed, 2)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		"dispatch-prete": func(seed int64) traffic { return newDispatch(seed, 40) },
	}
	for name, b := range build {
		a1 := scriptBytes(t, b(1), 60)
		a2 := scriptBytes(t, b(1), 60)
		other := scriptBytes(t, b(2), 60)
		if !bytes.Equal(a1, a2) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if bytes.Equal(a1, other) {
			t.Errorf("%s: seeds 1 and 2 gave identical inputs", name)
		}
	}
}
