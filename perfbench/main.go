// Command perfbench is the repository benchmark: it runs one workload
// against a real psmd process on localhost over /v1 HTTP, checks the
// outputs against a serial-Rete oracle, and prints every end-to-end
// metric; with -trace 1 it also drives the workload's script through
// each layer in-process and prints the per-layer metrics instead.
//
// Run it through run.sh from the repository root, which builds psmd
// and this command under .bench_build:
//
//	bash perfbench/run.sh --workload fraud-stream --seed 1 --seconds 16 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit status is non-zero on any output mismatch or failure.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// traffic is one workload's load: its sessions, request streams and checks.
type traffic interface {
	// psmdArgs are the daemon flags; dir is scratch space for the run.
	psmdArgs(dir string) []string
	// initial calls create the sessions that exist before measurement.
	initial() []*call
	// next returns connection conn's next call (nil when exhausted).
	next(conn int) *call
	// check compares psmd's final state with the oracle.
	check(ctx context.Context, h *harness) error
}

// spec describes a workload: how to build it and how to load it.
type spec struct {
	name string
	// open is each connection's rate of scheduled requests (requests/s;
	// lifecycles/s for manners) in the open-loop phase: a fifth to a
	// quarter of the closed-loop capacity measured at the seed commit on
	// a 2-vCPU machine (SPEC.md says why not half). closed is each
	// connection's rate in the closed-loop phase (0 = closed loop;
	// dispatch-prete's reader stays paced).
	open, closed []float64
	// durable marks workloads served with -data-dir.
	durable bool
	// traceCalls is the length of the traced run's script; traceConn
	// picks the connection whose call comes i-th.
	traceCalls int
	traceConn  func(i int) int
	// build generates the workload's inputs; scripted workloads get
	// enough for about twice the capacity seen at the seed commit.
	build func(seed int64, seconds int) (traffic, error)
}

var specs = []spec{
	{
		name:       "fraud-stream",
		open:       []float64{20, 20},
		closed:     []float64{0, 0},
		traceCalls: 120,
		traceConn:  func(i int) int { return i % 2 },
		build: func(seed int64, seconds int) (traffic, error) {
			return newFraud(seed, 2, 20*seconds+100), nil
		},
	},
	{
		name:       "manners-durable",
		durable:    true,
		open:       []float64{12, 12},
		closed:     []float64{0, 0},
		traceCalls: 200,
		traceConn:  func(i int) int { return i % 2 },
		build: func(seed int64, seconds int) (traffic, error) {
			return newManners(seed, 2)
		},
	},
	{
		name:       "dispatch-prete",
		open:       []float64{120, 40},
		closed:     []float64{0, 40},
		traceCalls: 300,
		traceConn: func(i int) int {
			if i%4 == 3 {
				return 1
			}
			return 0
		},
		build: func(seed int64, seconds int) (traffic, error) {
			return newDispatch(seed, 600*seconds+2000), nil
		},
	},
}

// closedShare is the closed-loop phase's percentage of the measured
// seconds; the open-loop phase gets the rest.
const closedShare = 25

// setupTrials is how many times a run sets psmd up; setup_s is their
// median and the last one serves the measured phases.
const setupTrials = 9

// warmup runs closed-loop load before measuring, so lazy set-up
// (index builds, pool start, page cache) is not timed.
const warmup = time.Second

func main() { os.Exit(benchMain()) }

func benchMain() int {
	psmdBin := flag.String("psmd", "", "psmd binary")
	work := flag.String("work", ".bench_build", "scratch directory (inside the checkout)")
	name := flag.String("workload", "", "fraud-stream | manners-durable | dispatch-prete")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 16, "measured seconds (closed loop 25%, open loop 75%)")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from the traced run")
	flag.Parse()

	var sp *spec
	for i := range specs {
		if specs[i].name == *name {
			sp = &specs[i]
		}
	}
	if sp == nil || *psmdBin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -psmd BIN --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	defer killAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(1)
	}()
	res, err := run(*sp, *psmdBin, *work, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	must(err)
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// harness owns the psmd under test and the client talking to it.
type harness struct {
	bin   string
	args  []string
	p     *psmd
	cl    *client
	conns int
}

// crashRestart SIGKILLs psmd and starts it again with the same flags
// and data directory.
func (h *harness) crashRestart() error {
	h.p.kill()
	p, err := startPSMD(h.bin, h.args)
	if err != nil {
		return err
	}
	h.p, h.cl = p, newClient(p.base, h.conns)
	return nil
}

func run(sp spec, bin, work string, seed int64, seconds int, traceMode bool) (*result, error) {
	scratch, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("run-%s-%d-%d", sp.name, seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	ctx := context.Background()
	conns := len(sp.open)

	tl := time.Now()
	lap := func(what string) {
		fmt.Fprintf(os.Stderr, "perfbench: %s took %.2fs\n", what, time.Since(tl).Seconds())
		tl = time.Now()
	}
	w, err := sp.build(seed, seconds)
	if err != nil {
		return nil, err
	}
	lap("input generation")

	// Set-up: psmd exec until /readyz is 200 and the initial sessions
	// exist, setupTrials times on fresh state; the last one is kept.
	h := &harness{bin: bin, conns: conns}
	var setups []float64
	for trial := 0; trial < setupTrials; trial++ {
		h.args = w.psmdArgs(filepath.Join(scratch, fmt.Sprintf("trial-%d", trial)))
		t0 := time.Now()
		p, err := startPSMD(bin, h.args)
		if err != nil {
			return nil, err
		}
		h.p, h.cl = p, newClient(p.base, conns)
		for _, c := range w.initial() {
			if _, err := h.cl.must2xx(ctx, c); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		if trial < setupTrials-1 {
			h.p.kill()
		}
	}

	lap("set-up")
	send := func(ctx context.Context, c *call) (int, []byte, error) { return h.cl.do(ctx, c) }
	var all phaseStats
	var problems []string
	measure := func(ph phase) (phaseStats, error) {
		before, err := h.cl.scrape(ctx)
		if err != nil {
			return phaseStats{}, err
		}
		st := runPhase(ctx, send, w.next, ph)
		after, err := h.settledScrape(ctx)
		if err != nil {
			return st, err
		}
		problems = append(problems, countChecks(ph.name, before, after, &st)...)
		all.merge(&st)
		return st, nil
	}
	if _, err := measure(phase{name: "warmup", rates: sp.closed, dur: warmup, jitter: true, seed: seed}); err != nil {
		return nil, err
	}
	total := time.Duration(seconds) * time.Second
	closedDur := max(total*closedShare/100, window)
	closed, err := measure(phase{name: "closed", rates: sp.closed, dur: closedDur, cpu: h.p.cpu, jitter: true, seed: seed + 1})
	if err != nil {
		return nil, err
	}
	open, err := measure(phase{name: "open", rates: sp.open, dur: max(total-closedDur, window), cpu: h.p.cpu, jitter: true, seed: seed + 2})
	if err != nil {
		return nil, err
	}
	rss, err := h.p.peakRSS()
	if err != nil {
		return nil, err
	}
	if all.mismatch > 0 {
		problems = append(problems, fmt.Sprintf("%d responses failed their output check", all.mismatch))
	}
	problems = append(problems, all.problems...)
	lap("load phases")
	if err := w.check(ctx, h); err != nil {
		problems = append(problems, "output check: "+err.Error())
	}
	if err := h.p.stop(); err != nil {
		problems = append(problems, err.Error())
	}
	lap("output checks")

	late := summarize(open.lateMS, 0.99)
	measured := closed.attempted + open.attempted
	res := &result{
		Correct:   len(problems) == 0,
		Attempted: all.attempted,
		Failed:    all.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Printf("workload %s seed %d: %d requests (%d measured), %d failed, %d rejected (429)\n",
		sp.name, seed, all.attempted, measured, all.failed, all.rejected)
	fmt.Printf("  setup trials (s): %v\n", fmtFloats(setups))
	fmt.Printf("  closed loop: %d requests, %d changes in %.2fs; changes per 1s window %v\n",
		closed.attempted, closed.changes, closed.elapsed.Seconds(), closed.windowChanges)
	fmt.Printf("  open loop at %v per connection: generator late p%.1f %.3f ms\n", sp.open, 100*late.Q, late.Tail)
	// Tail latencies are printed but not gated (SPEC.md says why).
	for _, l := range []struct {
		name string
		ms   []float64
	}{{"write", open.writeMS}, {"read", open.readMS}} {
		t90, t99 := summarize(l.ms, 0.90), summarize(l.ms, 0.99)
		if t99.N > 0 {
			fmt.Printf("  open-loop %ss: n %d, p50 %.3f ms, p%.1f %.3f ms, p%.1f %.3f ms, max %.3f ms\n", l.name,
				t99.N, t99.P50, 100*t90.Q, t90.Tail, 100*t99.Q, t99.Tail, t99.Sorted[t99.N-1])
		}
	}
	for _, p := range problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}

	if !traceMode {
		res.Metrics["setup_s"] = metric{medianOf(setups), "s"}
		res.Metrics["wme_changes_per_s"] = metric{closed.changesPerSecond(), "1/s"}
		res.Metrics["write_p50_ms"] = metric{medianOf(open.writeMS), "ms"}
		res.Metrics["read_p50_ms"] = metric{medianOf(open.readMS), "ms"}
		res.Metrics["success_rate"] = metric{1 - float64(all.failed)/float64(max(all.attempted, 1)), "frac"}
		res.Metrics["cpu_ms_per_kchange"] = metric{cpuPerKChange(&closed, &open), "ms"}
		res.Metrics["rss_peak_mb"] = metric{rss, "MiB"}
		printMetrics(res.Metrics)
		return res, nil
	}

	tw, err := sp.build(seed, 1)
	if err != nil {
		return nil, err
	}
	script := tw.initial()
	for i := 0; i < sp.traceCalls; i++ {
		c := tw.next(sp.traceConn(i))
		if c == nil {
			return nil, errors.New("trace script exhausted")
		}
		switch {
		case c.kind == kindStream:
			c = streamCall(c.session, c.body)
		case c.kind == kindChanges && c.specs == nil:
			c = changesCall(c.session, c.body)
		}
		script = append(script, c)
	}
	tres, err := traceRun(script, sp.durable, filepath.Join(scratch, "trace"))
	if err != nil {
		return nil, err
	}
	lap("traced run")
	spanFile := filepath.Join(work, fmt.Sprintf("spans-%s-%d.json", sp.name, seed))
	if err := writeSpans(spanFile, tres.spans); err != nil {
		return nil, err
	}
	fmt.Printf("  traced run: %d calls, %d spans written to %s\n", len(script), len(tres.spans), spanFile)
	tres.metrics["loadgen.late_p99_ms"] = late.Tail
	for _, l := range perLayer {
		v, ok := tres.metrics[l.name]
		if !ok {
			return nil, fmt.Errorf("traced run did not produce %s", l.name)
		}
		res.Metrics[l.name] = metric{v, l.unit}
	}
	printMetrics(res.Metrics)
	return res, nil
}

// perLayer lists the traced run's metrics with their units.
var perLayer = []struct{ name, unit string }{
	{"loadgen.late_p99_ms", "ms"},
	{"server.http_self_us", "us"},
	{"server.dispatch_self_us", "us"},
	{"engine.expire_us_per_batch", "us"},
	{"engine.expired_per_batch", "count"},
	{"engine.apply_us_per_batch", "us"},
	{"engine.run_us_per_batch", "us"},
	{"engine.match_frac", "frac"},
	{"engine.select_frac", "frac"},
	{"engine.act_frac", "frac"},
	{"engine.cycles_per_batch", "count"},
	{"engine.fired_per_batch", "count"},
	{"engine.allocs_per_change", "count"},
	{"engine.bytes_per_change", "B"},
	{"rete.activations_per_change", "count"},
	{"rete.token_comparisons_per_change", "count"},
	{"rete.affected_prods_per_change", "count"},
	{"rete.indexed_probe_frac", "frac"},
	{"conflict.size_max", "count"},
	{"wm.size_max", "count"},
	{"prete.wall_speedup", "x"},
	{"prete.reported_true_speedup", "x"},
	{"prete.loss_factor", "x"},
	{"prete.idle_frac", "frac"},
	{"prete.lockwait_frac", "frac"},
	{"prete.sched_frac", "frac"},
	{"prete.inline_batch_frac", "frac"},
	{"prete.steals_per_batch", "count"},
	{"durable.append_us_p50", "us"},
	{"durable.append_us_p99", "us"},
	{"durable.wal_bytes_per_change", "B"},
	{"durable.create_ms", "ms"},
	{"core.compile_ms", "ms"},
	{"durable.snapshot_ms", "ms"},
	{"durable.recover_ms", "ms"},
	{"durable.ship_apply_us", "us"},
}

// cpuPerKChange is the median over the measured windows of psmd CPU
// milliseconds per 1000 WM changes.
func cpuPerKChange(phases ...*phaseStats) float64 {
	var per []float64
	for _, p := range phases {
		for i, c := range p.windowCPU {
			if n := p.windowChanges[i]; n > 0 {
				per = append(per, ms(c)/float64(n)*1000)
			}
		}
	}
	return medianOf(per)
}

// settledScrape waits (up to 2s) for psmd_stream_lag_events to drain
// to 0 and returns that scrape.
func (h *harness) settledScrape(ctx context.Context) (map[string]float64, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		m, err := h.cl.scrape(ctx)
		if err != nil || m["psmd_stream_lag_events"] == 0 || time.Now().After(deadline) {
			return m, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// countChecks compares the client's counts for a phase with psmd's
// /metrics deltas.
func countChecks(name string, before, after map[string]float64, st *phaseStats) []string {
	var out []string
	d := func(k string) float64 { return after[k] - before[k] }
	if v := d("psmd_deprecated_requests_total"); v != 0 {
		out = append(out, fmt.Sprintf("%s: psmd_deprecated_requests_total rose by %v", name, v))
	}
	if v := after["psmd_stream_lag_events"]; v != 0 {
		out = append(out, fmt.Sprintf("%s: psmd_stream_lag_events did not settle to 0 (%v)", name, v))
	}
	if v := d("psmd_wme_changes_total"); v != float64(st.changes) {
		out = append(out, fmt.Sprintf("%s: client counted %d WM changes, psmd_wme_changes_total rose by %v", name, st.changes, v))
	}
	if v := d("psmd_rejected_total"); v != float64(st.rejected) {
		out = append(out, fmt.Sprintf("%s: client counted %d 429s, psmd_rejected_total rose by %v", name, st.rejected, v))
	}
	return out
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-36s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func fmtFloats(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4f", x)
	}
	return s
}
