package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/conflict"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/ops5"
	"repro/internal/prete"
	"repro/internal/rete"
	"repro/internal/server"
)

// span is one recorded call into a layer. Spans of one script call
// share Call; Parent links a span to the span that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Pass   string `json:"pass"`
	Rep    int    `json:"rep"`
	Call   int    `json:"call"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	// Recognize-act phases, on engine.cycle spans.
	Match  int64 `json:"match_ns,omitempty"`
	Select int64 `json:"select_ns,omitempty"`
	Act    int64 `json:"act_ns,omitempty"`
}

// tracer keeps spans in memory; a nil tracer records nothing. Passes
// are single-threaded, so open spans form a stack.
type tracer struct {
	epoch time.Time
	pass  string
	rep   int
	call  int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	sp := span{ID: len(t.spans) + 1, Pass: t.pass, Rep: t.rep, Call: t.call, Name: name, Start: time.Since(t.epoch).Nanoseconds()}
	if n := len(t.open); n > 0 {
		sp.Parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, sp)
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].Dur = time.Since(t.epoch).Nanoseconds() - t.spans[i].Start
	t.open = t.open[:len(t.open)-1]
}

// add records a span already finished, under the open span.
func (t *tracer) add(name string, start, end time.Time) {
	if t == nil {
		return
	}
	sp := span{ID: len(t.spans) + 1, Pass: t.pass, Rep: t.rep, Call: t.call, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), Dur: end.Sub(start).Nanoseconds()}
	if n := len(t.open); n > 0 {
		sp.Parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, sp)
}

// cycle records one engine recognize-act span under the open span.
func (t *tracer) cycle(cs obs.CycleSpan) {
	sp := span{ID: len(t.spans) + 1, Pass: t.pass, Rep: t.rep, Call: t.call, Name: "engine.cycle",
		Start: cs.Start.Sub(t.epoch).Nanoseconds(), Dur: cs.Total().Nanoseconds(),
		Match: cs.Match.Nanoseconds(), Select: cs.Select.Nanoseconds(), Act: cs.Act.Nanoseconds()}
	if n := len(t.open); n > 0 {
		sp.Parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, sp)
}

// identityTolerance bounds the unaccounted share of the HTTP pass:
// per call, http self + dispatch self + the engine pass's entry-point
// spans must sum to the ServeHTTP time within this share of the total.
// cycleTolerance bounds how far the engine's OnCycle phases
// (match + select + act) plus the expiries between cycles may fall
// short of the RunContext time that contains them (the gap is loop
// control and the final select that finds nothing to fire).
const (
	identityTolerance = 0.05
	cycleTolerance    = 0.15
)

// traced is the per-layer result of a traced run.
type traced struct {
	metrics map[string]float64
	spans   []span
}

// passReps is how many times the http, dispatch and engine passes run;
// per call, each layer's time is the median over them.
const passReps = 3

// traceRun drives one fixed script through each layer's public entry
// point, on fresh state for each pass, in this process:
//
//	http:     server.Handler().ServeHTTP
//	dispatch: Server.CreateSession / StreamApply / Apply / RunCycles / WM / Conflicts / DeleteSession
//	engine:   core.NewSystem, Engine.AdvanceClock / ApplyChanges / RunContext (+ OnCycle),
//	          with durable.Create / Log.Append as the sink when the workload is durable
//	durable:  the engine pass with a WAL per session, each record teed
//	          into a Standby, then Log.Snapshot and durable.Recover
//	matcher:  the engine pass's committed batches replayed into
//	          rete.Network.Apply and prete.Matcher.Apply
//
// A layer's self time is its pass's time minus the pass one layer down.
func traceRun(script []*call, durableWorkload bool, scratch string) (*traced, error) {
	tr := newTracer()
	for rep := 0; rep < passReps; rep++ {
		tr.rep = rep
		dir := func(pass string) string {
			if !durableWorkload {
				return ""
			}
			return filepath.Join(scratch, fmt.Sprintf("%s-%d", pass, rep))
		}
		if err := lockstep(tr, script, dir); err != nil {
			return nil, err
		}
	}
	tr.rep = 0
	engineDir := ""
	if durableWorkload {
		engineDir = filepath.Join(scratch, "engine-obs")
	}
	eng, err := observeEngine(script, engineDir)
	if err != nil {
		return nil, err
	}
	walBytes, durChanges, err := durablePass(tr, script, filepath.Join(scratch, "durable"))
	if err != nil {
		return nil, err
	}
	tr.pass = "matcher"
	mr, err := replayMatchers(eng.order, eng.batches, eng.programs)
	if err != nil {
		return nil, err
	}

	agg := aggregate(tr.spans, len(script))
	if agg.identityGap > identityTolerance {
		return nil, fmt.Errorf("accounting identity: %.1f%% of ServeHTTP time is not covered by http self + dispatch self + engine spans (tolerance %.0f%%)",
			100*agg.identityGap, 100*identityTolerance)
	}
	if agg.runNS > 0 && agg.cycleGap > cycleTolerance {
		return nil, fmt.Errorf("accounting identity: OnCycle match+select+act plus per-cycle expiry covers %.1f%% of RunContext time (tolerance %.0f%% short)",
			100*(1-agg.cycleGap), 100*cycleTolerance)
	}
	m := map[string]float64{}
	n := float64(len(script))
	m["server.http_self_us"] = agg.httpSelfNS / n / 1e3
	m["server.dispatch_self_us"] = agg.dispatchSelfNS / n / 1e3
	perWrite := func(x float64) float64 {
		if eng.writes == 0 {
			return 0
		}
		return x / float64(eng.writes)
	}
	// Expiry is the clock advance before a batch plus the retractions
	// each cycle's clock tick makes due inside RunContext; run time is
	// RunContext less the latter, so expire + apply + run is the
	// engine's time.
	m["engine.expire_us_per_batch"] = perWrite((agg.expireNS + agg.cycleExpireNS) / 1e3)
	m["engine.apply_us_per_batch"] = perWrite(agg.applyNS / 1e3)
	m["engine.run_us_per_batch"] = perWrite((agg.runNS - agg.cycleExpireNS) / 1e3)
	m["engine.expired_per_batch"] = perWrite(float64(eng.expired))
	m["engine.cycles_per_batch"] = perWrite(float64(eng.cycles))
	m["engine.fired_per_batch"] = perWrite(float64(eng.fired))
	m["engine.match_frac"], m["engine.select_frac"], m["engine.act_frac"] = 0, 0, 0
	if agg.runNS > 0 {
		m["engine.match_frac"] = agg.matchNS / agg.runNS
		m["engine.select_frac"] = agg.selectNS / agg.runNS
		m["engine.act_frac"] = agg.actNS / agg.runNS
	}
	m["engine.allocs_per_change"] = float64(eng.allocs) / float64(max(eng.changes, 1))
	m["engine.bytes_per_change"] = float64(eng.bytes) / float64(max(eng.changes, 1))
	m["conflict.size_max"] = float64(eng.csMax)
	m["wm.size_max"] = float64(eng.wmMax)
	m["durable.append_us_p50"] = agg.append.P50 / 1e3
	m["durable.append_us_p99"] = agg.append.Tail / 1e3
	m["durable.wal_bytes_per_change"] = float64(walBytes) / float64(max(durChanges, 1))
	m["durable.create_ms"] = medianOf(agg.creates) / 1e6
	m["core.compile_ms"] = medianOf(agg.compiles) / 1e6
	m["durable.snapshot_ms"] = medianOf(agg.snapshots) / 1e6
	m["durable.recover_ms"] = medianOf(agg.recovers) / 1e6
	m["durable.ship_apply_us"] = medianOf(agg.ships) / 1e3
	for k, v := range mr {
		m[k] = v
	}
	return &traced{metrics: m, spans: tr.spans}, nil
}

// lockstep runs the script through three fresh stacks — the HTTP
// handler, the server's Go API and bare engines — taking each call
// through all three back to back (in rotating order), so the host's
// drifting speed affects the three passes alike and their differences
// stay meaningful.
func lockstep(tr *tracer, script []*call, dir func(pass string) string) error {
	config := func(dataDir string) server.Config {
		cfg := server.Config{QueueDepth: 128}
		if dataDir != "" {
			cfg.DataDir, cfg.Fsync, cfg.SnapshotEvery = dataDir, durable.FsyncAlways, 1024
		}
		return cfg
	}
	httpSrv := server.New(config(dir("http")))
	defer httpSrv.Close()
	handler := httpSrv.HandlerWith(server.HandlerConfig{RequestTimeout: 30 * time.Second})
	dispSrv := server.New(config(dir("dispatch")))
	defer dispSrv.Close()
	eng := newEngineHost(tr)
	defer eng.close()
	eng.dir = dir("engine")
	ctx := context.Background()
	steps := []func(c *call) error{
		func(c *call) error {
			tr.pass = "http"
			method, path := c.route()
			req := httptest.NewRequest(method, path, bytes.NewReader(c.body))
			rec := httptest.NewRecorder()
			sp := tr.begin("server.http")
			handler.ServeHTTP(rec, req)
			tr.end(sp)
			if rec.Code/100 != 2 {
				return fmt.Errorf("http pass: %s %s: status %d: %s", method, path, rec.Code, rec.Body.Bytes())
			}
			return nil
		},
		func(c *call) error {
			tr.pass = "dispatch"
			if c.kind == kindStream {
				dispSrv.StreamLagAdd(int64(len(c.events))) // the handler's share, done as it decodes events
			}
			sp := tr.begin("server.dispatch")
			err := dispatchCall(ctx, dispSrv, c)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("dispatch pass: %s %s: %w", c.kind, c.session, err)
			}
			return nil
		},
		func(c *call) error {
			tr.pass = "engine"
			sp := tr.begin("engine.call")
			err := eng.exec(c)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("engine pass: %s %s: %w", c.kind, c.session, err)
			}
			return nil
		},
	}
	for i, c := range script {
		tr.call = i
		for k := range steps {
			if err := steps[(i+k)%len(steps)](c); err != nil {
				return err
			}
		}
	}
	return nil
}

// engineObs is what observeEngine counts.
type engineObs struct {
	writes, cycles, fired, expired, changes int
	wmMax, csMax                            int
	allocs, bytes                           uint64
	// The committed batches per session, in commit order, for the
	// matcher pass.
	order    []string
	batches  map[string][][]ops5.Change
	programs map[string]string
}

// observeEngine runs the script once more on untraced in-process
// engines (durable under dataDir when set, as psmd serves the
// workload) and counts what the engine did: work per batch, allocation
// per change, the largest working memory and conflict set, and the
// committed batches the matcher pass replays.
func observeEngine(script []*call, dataDir string) (engineObs, error) {
	o := engineObs{batches: map[string][][]ops5.Change{}, programs: map[string]string{}}
	h := newEngineHost(nil)
	defer h.close()
	h.dir = dataDir
	var cur string
	h.capture = func(ch []ops5.Change) {
		if _, ok := o.batches[cur]; !ok {
			o.order = append(o.order, cur)
		}
		o.batches[cur] = append(o.batches[cur], ch)
		o.changes += len(ch)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, c := range script {
		cur = c.session
		if c.kind == kindCreate {
			o.programs[c.session] = c.program
		}
		var before [3]int
		if s := h.sessions[c.session]; s != nil {
			before = [3]int{s.sys.Cycles, s.sys.Fired, s.sys.Expired}
		}
		if err := h.exec(c); err != nil {
			return o, fmt.Errorf("engine pass: %s %s: %w", c.kind, c.session, err)
		}
		if s := h.sessions[c.session]; s != nil {
			o.wmMax = max(o.wmMax, s.sys.WM.Size())
			o.csMax = max(o.csMax, s.sys.CS.Len())
			if c.kind == kindStream || c.kind == kindChanges || c.kind == kindRun {
				o.writes++
				o.cycles += s.sys.Cycles - before[0]
				o.fired += s.sys.Fired - before[1]
				o.expired += s.sys.Expired - before[2]
			}
		}
	}
	runtime.ReadMemStats(&m1)
	o.allocs, o.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return o, nil
}

// durablePass runs the script on durable in-process engines whose WAL
// records are teed into standbys, then snapshots, closes and recovers
// every live session. It returns the WAL bytes written and the changes
// committed.
func durablePass(tr *tracer, script []*call, dataDir string) (walBytes int64, changes int, err error) {
	tr.pass = "durable"
	h := newEngineHost(tr)
	defer h.close()
	h.dir, h.ship = dataDir, true
	h.capture = func(ch []ops5.Change) { changes += len(ch) }
	for i, c := range script {
		tr.call = i
		if err := h.exec(c); err != nil {
			return 0, 0, fmt.Errorf("durable pass: %s %s: %w", c.kind, c.session, err)
		}
	}
	tr.call = len(script)
	if err := h.recoverAll(); err != nil {
		return 0, 0, fmt.Errorf("durable pass: %w", err)
	}
	return h.walBytes, changes, nil
}

// dispatchCall performs one call through the server's Go API.
func dispatchCall(ctx context.Context, srv *server.Server, c *call) error {
	var err error
	switch c.kind {
	case kindCreate:
		_, err = srv.CreateSession(ctx, server.CreateSpec{ID: c.session, Program: c.program, Matcher: c.matcher, Workers: c.workers})
	case kindDelete:
		err = srv.DeleteSession(ctx, c.session)
	case kindStream:
		_, err = srv.StreamApply(ctx, c.session, c.events)
	case kindChanges:
		_, err = srv.Apply(ctx, c.session, c.specs)
	case kindRun:
		_, err = srv.RunCycles(ctx, c.session, 0)
	case kindWM:
		_, err = srv.WM(ctx, c.session, c.class)
	case kindConflicts:
		_, err = srv.Conflicts(ctx, c.session)
	}
	return err
}

// spanAgg folds a traced run's spans into per-layer totals. Engine
// sums are per pass (averaged over the repetitions).
type spanAgg struct {
	httpSelfNS, dispatchSelfNS              float64
	expireNS, applyNS, runNS, cycleExpireNS float64
	matchNS, selectNS, actNS                float64
	identityGap, cycleGap                   float64
	append                                  tail
	creates, compiles, snapshots, recovers  []float64
	ships                                   []float64
}

func aggregate(spans []span, calls int) spanAgg {
	var a spanAgg
	// Per call and repetition: ServeHTTP, dispatch and engine-call time,
	// and the engine entry-point spans directly under engine.call.
	httpNS := make([][passReps]float64, calls)
	dispNS := make([][passReps]float64, calls)
	engNS := make([][passReps]float64, calls)
	childNS := make([][passReps]float64, calls)
	engineRoot := map[int]bool{}
	var appends []float64
	var cycleNS float64
	for _, s := range spans {
		d := float64(s.Dur)
		switch s.Pass {
		case "http":
			httpNS[s.Call][s.Rep] += d
		case "dispatch":
			dispNS[s.Call][s.Rep] += d
		case "engine":
			if s.Name == "engine.call" {
				engNS[s.Call][s.Rep] += d
				engineRoot[s.ID] = true
			} else if engineRoot[s.Parent] {
				childNS[s.Call][s.Rep] += d
			}
			switch s.Name {
			case "engine.expire":
				a.expireNS += d
			case "engine.apply":
				a.applyNS += d
			case "engine.run":
				a.runNS += d
			case "engine.cycle_expire":
				a.cycleExpireNS += d
			case "engine.cycle":
				a.matchNS += float64(s.Match)
				a.selectNS += float64(s.Select)
				a.actNS += float64(s.Act)
				cycleNS += d
			case "core.compile":
				a.compiles = append(a.compiles, d)
			}
		case "durable":
			switch s.Name {
			case "durable.append":
				appends = append(appends, d)
			case "durable.create":
				a.creates = append(a.creates, d)
			case "durable.snapshot":
				a.snapshots = append(a.snapshots, d)
			case "durable.recover":
				a.recovers = append(a.recovers, d)
			case "durable.ship":
				a.ships = append(a.ships, d)
			}
		}
	}
	for _, p := range []*float64{&a.expireNS, &a.applyNS, &a.runNS, &a.cycleExpireNS, &a.matchNS, &a.selectNS, &a.actNS, &cycleNS} {
		*p /= passReps
	}
	var total, accounted float64
	for i := 0; i < calls; i++ {
		h, d, e := medianOf(httpNS[i][:]), medianOf(dispNS[i][:]), medianOf(engNS[i][:])
		httpSelf, dispSelf := h-d, d-e
		a.httpSelfNS += httpSelf
		a.dispatchSelfNS += dispSelf
		total += h
		accounted += httpSelf + dispSelf + medianOf(childNS[i][:])
	}
	if total > 0 {
		a.identityGap = math.Abs(total-accounted) / total
	}
	if a.runNS > 0 {
		a.cycleGap = 1 - (cycleNS+a.cycleExpireNS)/a.runNS
	}
	a.append = summarize(appends, 0.99)
	return a
}

// replayMatchers replays each session's committed batches into a
// serial rete.Network and a prete.Matcher (workers = CPUs), alternating
// three times, and reports the median wall-time ratio beside the
// parallel matcher's own loss accounting from its last replay.
func replayMatchers(order []string, batches map[string][][]ops5.Change, programs map[string]string) (map[string]float64, error) {
	const reps = 3
	var reteNS, preteNS []float64
	var rs rete.Stats
	var loss struct {
		serial, apply, active, nominalActive float64
		components                           map[string]float64
		budget                               float64
		batches, inline, steals              int64
	}
	for rep := 0; rep < reps; rep++ {
		var rt, pt time.Duration
		for _, id := range order {
			prog, err := ops5.Parse(programs[id])
			if err != nil {
				return nil, err
			}
			net, err := rete.Compile(prog.Productions)
			if err != nil {
				return nil, err
			}
			cs := conflict.NewSet(conflict.LEX)
			net.OnInsert, net.OnRemove = cs.Insert, cs.Remove
			t0 := time.Now()
			for _, b := range batches[id] {
				net.Apply(b)
			}
			rt += time.Since(t0)
			if rep == 0 {
				addReteStats(&rs, &net.Stats)
			}

			pm, err := prete.NewWithConfig(prog.Productions, prete.Config{Workers: runtime.NumCPU()})
			if err != nil {
				return nil, err
			}
			pcs := conflict.NewSet(conflict.LEX)
			pm.OnInsert, pm.OnRemove = pcs.Insert, pcs.Remove
			t0 = time.Now()
			for _, b := range batches[id] {
				pm.Apply(b)
			}
			pt += time.Since(t0)
			if cs.Len() != pcs.Len() {
				pm.Close()
				return nil, fmt.Errorf("matcher pass: session %s: rete conflict set %d, prete %d", id, cs.Len(), pcs.Len())
			}
			if rep == reps-1 {
				l := pm.Loss()
				st := pm.Stats()
				loss.serial += l.SerialEstimateSeconds
				loss.apply += l.ApplySeconds
				loss.active += l.ActiveSeconds
				loss.nominalActive += l.NominalConcurrency * l.ActiveSeconds
				loss.budget += float64(l.Workers) * l.ApplySeconds
				if loss.components == nil {
					loss.components = map[string]float64{}
				}
				for _, c := range l.Decomposition {
					loss.components[c.Name] += c.Seconds
				}
				loss.batches += int64(st.Batches)
				loss.inline += st.InlineBatches
				loss.steals += st.Steals
			}
			pm.Close()
		}
		reteNS = append(reteNS, float64(rt))
		preteNS = append(preteNS, float64(pt))
	}
	m := map[string]float64{}
	m["prete.wall_speedup"] = medianOf(reteNS) / medianOf(preteNS)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	trueSpeedup := ratio(loss.serial, loss.apply)
	m["prete.reported_true_speedup"] = trueSpeedup
	m["prete.loss_factor"] = ratio(ratio(loss.nominalActive, loss.active), trueSpeedup)
	m["prete.idle_frac"] = ratio(loss.components["idle"], loss.budget)
	m["prete.lockwait_frac"] = ratio(loss.components["memory_contention"], loss.budget)
	m["prete.sched_frac"] = ratio(loss.components["scheduling"], loss.budget)
	m["prete.inline_batch_frac"] = ratio(float64(loss.inline), float64(loss.batches))
	m["prete.steals_per_batch"] = ratio(float64(loss.steals), float64(loss.batches))
	ch := float64(max(rs.Changes, 1))
	m["rete.activations_per_change"] = float64(rs.TotalActivations()) / ch
	m["rete.token_comparisons_per_change"] = float64(rs.TokenComparisons) / ch
	m["rete.affected_prods_per_change"] = float64(rs.AffectedProductions) / ch
	twoInput := rs.Activations[rete.KindJoinLeft] + rs.Activations[rete.KindJoinRight] +
		rs.Activations[rete.KindNegLeft] + rs.Activations[rete.KindNegRight]
	m["rete.indexed_probe_frac"] = ratio(float64(rs.IndexedProbes), float64(twoInput))
	return m, nil
}

func addReteStats(dst, src *rete.Stats) {
	dst.Changes += src.Changes
	for k := range dst.Activations {
		dst.Activations[k] += src.Activations[k]
	}
	dst.TokenComparisons += src.TokenComparisons
	dst.IndexedProbes += src.IndexedProbes
	dst.AffectedProductions += src.AffectedProductions
}

// writeSpans saves a traced run's spans as JSON.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
