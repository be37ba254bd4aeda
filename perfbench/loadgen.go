package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// sendFunc performs one call and returns the HTTP status and body.
type sendFunc func(ctx context.Context, c *call) (status int, body []byte, err error)

// phase is one measured stretch of load. rates[i] is connection i's
// request rate in requests per second; 0 runs that connection closed
// loop (its next request leaves when the previous one returns).
type phase struct {
	name  string
	rates []float64
	dur   time.Duration
	// cpu, when set, is sampled at every window boundary.
	cpu func() (time.Duration, error)
	// jitter spaces each open-loop connection's requests by gaps drawn
	// from seed, uniform between 0.5/rate and 1.5/rate, instead of
	// exactly 1/rate apart. The connections then keep no fixed phase to
	// each other (dispatch-prete's reads meet its writes at a random
	// point), while the gaps stay bounded: exponential gaps would bunch
	// arrivals into queues whose wait swings with every few percent of
	// host speed.
	jitter bool
	seed   int64
}

// window is the sub-interval a phase's throughput and CPU cost are
// counted in; the benchmark reports medians over windows, which a
// short stall on a shared machine moves less than a whole-phase mean.
const window = time.Second

// phaseStats is what one phase measured, from the client side.
type phaseStats struct {
	attempted int
	failed    int // non-2xx, transport errors and timeouts
	rejected  int // 429s (also counted in failed)
	changes   int // WM changes acknowledged (the psmd_wme_changes_total unit)
	writeMS   []float64
	readMS    []float64
	lateMS    []float64 // open-loop generator lateness
	elapsed   time.Duration
	// Per window: WM changes acknowledged (by completion time) and the
	// CPU the sampled process spent.
	windowChanges []int
	windowCPU     []time.Duration
	mismatch      int      // responses whose content failed the workload's check
	problems      []string // mismatches and request failures, first few
}

func (s *phaseStats) merge(o *phaseStats) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.rejected += o.rejected
	s.changes += o.changes
	s.mismatch += o.mismatch
	s.writeMS = append(s.writeMS, o.writeMS...)
	s.readMS = append(s.readMS, o.readMS...)
	s.lateMS = append(s.lateMS, o.lateMS...)
	if o.elapsed > s.elapsed {
		s.elapsed = o.elapsed
	}
	for i := range s.windowChanges { // windows add up only within one phase
		s.windowChanges[i] += o.windowChanges[i]
	}
	for _, p := range o.problems {
		s.note(p)
	}
}

func (s *phaseStats) note(p string) {
	if len(s.problems) < 8 {
		s.problems = append(s.problems, p)
	}
}

// runPhase drives every connection for ph.dur. next(i) yields
// connection i's next call (nil: its script is exhausted, a problem).
//
// An open-loop connection's requests fall due at rate per second,
// 1/rate apart or jittered around that, except calls that follow their
// predecessor (a user's next step), which leave as soon as it returns
// and are timed from then. A scheduled request leaves at its due time, or as soon as the previous request on the
// connection returns if that is later, and its latency is timed from
// the due time, so a stall is charged to every request it delays.
// Lateness is how long after it could have left (due time, or the
// previous request's return) the generator actually sent it.
func runPhase(ctx context.Context, send sendFunc, next func(conn int) *call, ph phase) phaseStats {
	start := time.Now()
	end := start.Add(ph.dur)
	windows := int(ph.dur / window)
	per := make([]phaseStats, len(ph.rates))
	var wg sync.WaitGroup
	var cpu []time.Duration
	var cpuErr error
	if ph.cpu != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev, err := ph.cpu()
			for k := 1; k <= windows && err == nil; k++ {
				time.Sleep(time.Until(start.Add(time.Duration(k) * window)))
				var cur time.Duration
				if cur, err = ph.cpu(); err == nil {
					cpu = append(cpu, cur-prev)
					prev = cur
				}
			}
			cpuErr = err
		}()
	}
	for i := range ph.rates {
		per[i].windowChanges = make([]int, windows)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := &per[i]
			rate := ph.rates[i]
			gap := func() float64 { return 1 / rate }
			if ph.jitter {
				rng := rand.New(rand.NewSource(ph.seed*1009 + int64(i)))
				gap = func() float64 { return (0.5 + rng.Float64()) / rate }
			}
			prevDone := start
			dueAt := 0.0 // seconds after start the next scheduled request falls due
			for {
				if time.Now().After(end) || (rate > 0 && dueAt >= ph.dur.Seconds()) {
					return
				}
				c := next(i)
				if c == nil {
					st.note(fmt.Sprintf("connection %d: script exhausted", i))
					return
				}
				scheduled := rate > 0 && !c.follows
				var due time.Time
				if scheduled {
					due = start.Add(time.Duration(dueAt * float64(time.Second)))
					dueAt += gap()
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				sent := time.Now()
				if scheduled {
					ready := due
					if prevDone.After(ready) {
						ready = prevDone
					}
					st.lateMS = append(st.lateMS, ms(sent.Sub(ready)))
				} else {
					due = sent
				}
				status, body, err := send(ctx, c)
				done := time.Now()
				prevDone = done
				st.attempted++
				st.elapsed = done.Sub(start)
				switch {
				case err != nil:
					st.failed++
					st.note(fmt.Sprintf("%s %s: %v", c.kind, c.session, err))
					continue
				case status == 429:
					st.failed++
					st.rejected++
					continue
				case status/100 != 2:
					st.failed++
					st.note(fmt.Sprintf("%s %s: status %d", c.kind, c.session, status))
					continue
				}
				if c.ack != nil {
					n, err := c.ack(body)
					if err != nil {
						st.mismatch++
						st.note(fmt.Sprintf("%s %s: %v", c.kind, c.session, err))
					}
					st.changes += n
					if w := int(done.Sub(start) / window); w < windows {
						st.windowChanges[w] += n
					}
				}
				lat := ms(done.Sub(due))
				if c.write {
					st.writeMS = append(st.writeMS, lat)
				} else {
					st.readMS = append(st.readMS, lat)
				}
			}
		}(i)
	}
	wg.Wait()
	out := phaseStats{windowChanges: make([]int, windows), windowCPU: cpu}
	for i := range per {
		out.merge(&per[i])
	}
	if cpuErr != nil {
		out.note(fmt.Sprintf("cpu sampling: %v", cpuErr))
	}
	return out
}

// changesPerSecond is the median over the phase's windows of WM changes
// acknowledged per second.
func (s *phaseStats) changesPerSecond() float64 {
	rates := make([]float64, len(s.windowChanges))
	for i, n := range s.windowChanges {
		rates[i] = float64(n) / window.Seconds()
	}
	return medianOf(rates)
}
