// Package core is the top-level API of the production-system library:
// it assembles a parser-fed rule system from an OPS5 source text, a
// matcher (serial Rete, the paper's fine-grain parallel Rete, TREAT, or
// the naive rematcher), a conflict-resolution strategy and the
// recognize-act engine, behind one constructor.
//
// Quickstart:
//
//	sys, err := core.NewSystem(src, core.Options{Matcher: core.ParallelRete})
//	if err != nil { ... }
//	cycles, err := sys.Run()
package core

import (
	"fmt"
	"io"

	"repro/internal/conflict"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/fullstate"
	"repro/internal/naive"
	"repro/internal/ops5"
	"repro/internal/prete"
	"repro/internal/rete"
	"repro/internal/treat"
	"repro/internal/wm"
)

// MatcherKind selects the match algorithm.
type MatcherKind uint8

// The available match algorithms.
const (
	// SerialRete is the classic single-threaded Rete of §2.2.
	SerialRete MatcherKind = iota
	// ParallelRete is the paper's fine-grain parallel Rete (§4-5),
	// running node activations on a goroutine worker pool.
	ParallelRete
	// TREAT stores only alpha memories and recomputes joins (§3.2).
	TREAT
	// FullState stores tuples for all CE combinations (Oflazer's
	// scheme, the high end of §3.2).
	FullState
	// Naive rematches the whole working memory every cycle (§3.1).
	Naive
)

// String names the matcher kind.
func (k MatcherKind) String() string {
	switch k {
	case ParallelRete:
		return "parallel-rete"
	case TREAT:
		return "treat"
	case FullState:
		return "full-state"
	case Naive:
		return "naive"
	default:
		return "rete"
	}
}

// ParseMatcherKind converts a name (as printed by String) to a kind.
func ParseMatcherKind(s string) (MatcherKind, error) {
	switch s {
	case "rete", "serial", "serial-rete":
		return SerialRete, nil
	case "parallel", "parallel-rete", "prete":
		return ParallelRete, nil
	case "treat":
		return TREAT, nil
	case "full-state", "fullstate", "oflazer":
		return FullState, nil
	case "naive":
		return Naive, nil
	default:
		return SerialRete, fmt.Errorf("core: unknown matcher %q (rete|parallel-rete|treat|full-state|naive)", s)
	}
}

// Options configures a System.
type Options struct {
	// Matcher selects the match algorithm (default SerialRete).
	Matcher MatcherKind
	// Strategy selects conflict resolution (default LEX).
	Strategy conflict.Strategy
	// Workers sets the parallel matcher's goroutine count (default
	// GOMAXPROCS); ignored by the other matchers.
	Workers int
	// Output receives write-action output (default: discarded).
	Output io.Writer
	// MaxCycles bounds Run (default: unbounded).
	MaxCycles int
	// ParallelFirings fires up to N non-conflicting instantiations per
	// cycle (default 1).
	ParallelFirings int
	// NoInitialWM skips loading the program's top-level (make ...)
	// forms, leaving working memory empty. Crash recovery
	// (internal/durable) builds systems this way and then restores a
	// snapshot — the snapshot already contains the post-load state.
	NoInitialWM bool
}

// System is a ready-to-run production system.
type System struct {
	*engine.Engine
	prods   []*ops5.Production
	matcher MatcherKind
	net     *rete.Network // non-nil for SerialRete
	pm      *prete.Matcher
}

// NewSystem parses src (productions plus optional top-level make forms)
// and assembles a system.
func NewSystem(src string, opts Options) (*System, error) {
	prog, err := ops5.Parse(src)
	if err != nil {
		return nil, err
	}
	return NewSystemFromProgram(prog, opts)
}

// NewSystemFromProgram assembles a system from a parsed program.
func NewSystemFromProgram(prog *ops5.Program, opts Options) (*System, error) {
	cs := conflict.NewSet(opts.Strategy)
	sys := &System{prods: prog.Productions, matcher: opts.Matcher}

	var m engine.Matcher
	switch opts.Matcher {
	case SerialRete:
		net, err := rete.Compile(prog.Productions)
		if err != nil {
			return nil, err
		}
		net.OnInsert = cs.Insert
		net.OnRemove = cs.Remove
		sys.net = net
		m = netMatcher{net}
	case ParallelRete:
		pm, err := prete.NewWithConfig(prog.Productions, prete.Config{Workers: opts.Workers})
		if err != nil {
			return nil, err
		}
		pm.OnInsert = cs.Insert
		pm.OnRemove = cs.Remove
		sys.pm = pm
		m = preteMatcher{pm}
	case TREAT:
		tm, err := treat.New(prog.Productions)
		if err != nil {
			return nil, err
		}
		tm.OnInsert = cs.Insert
		tm.OnRemove = cs.Remove
		m = treatMatcher{tm}
	case FullState:
		fm, err := fullstate.New(prog.Productions)
		if err != nil {
			return nil, err
		}
		fm.OnInsert = cs.Insert
		fm.OnRemove = cs.Remove
		m = fullstateMatcher{fm}
	case Naive:
		nm, err := naive.New(prog.Productions)
		if err != nil {
			return nil, err
		}
		nm.OnInsert = cs.Insert
		nm.OnRemove = cs.Remove
		m = naiveMatcher{nm}
	default:
		return nil, fmt.Errorf("core: unknown matcher kind %d", opts.Matcher)
	}

	e := engine.New(wm.New(), cs, m)
	e.Out = opts.Output
	e.MaxCycles = opts.MaxCycles
	e.ParallelFirings = opts.ParallelFirings
	sys.Engine = e
	if !opts.NoInitialWM {
		e.Load(prog.InitialWM)
	}
	return sys, nil
}

// The adapters below bind each matcher to engine.Matcher and to the
// optional capability interfaces (engine.StatsProvider and, for the
// matchers with hash-indexed memories, engine.IndexProvider). The
// matcher packages stay free of engine imports; the capability
// surface lives here.

// nodeProfile converts a matcher's per-node counters into engine
// profile entries, pricing each node's accumulated work with the
// paper-calibrated cost model so reports rank by cumulative cost.
func nodeProfile(entries []rete.NodeProfEntry) []engine.NodeProfileEntry {
	model := cost.Default()
	out := make([]engine.NodeProfileEntry, len(entries))
	for i, e := range entries {
		out[i] = engine.NodeProfileEntry{
			NodeID:        e.NodeID,
			Label:         e.Label,
			SharedBy:      e.SharedBy,
			Productions:   e.Productions,
			Activations:   e.Activations,
			TokensTested:  e.TokensTested,
			PairsEmitted:  e.PairsEmitted,
			IndexedProbes: e.IndexedProbes,
			Cost: float64(e.Activations)*model.JoinBase +
				float64(e.TokensTested)*model.PerTokenTest +
				float64(e.PairsEmitted)*model.PerPairEmit +
				float64(e.IndexedProbes)*model.HashProbe,
		}
	}
	return out
}

// netMatcher adapts *rete.Network to engine.Matcher.
type netMatcher struct{ net *rete.Network }

// Apply forwards the batch to the network.
func (m netMatcher) Apply(changes []ops5.Change) { m.net.Apply(changes) }

// MatchStats reports the network's match work.
func (m netMatcher) MatchStats() engine.MatchStats {
	s := m.net.Stats
	return engine.MatchStats{
		Changes:         int64(s.Changes),
		Comparisons:     s.TokenComparisons,
		ConflictInserts: s.ConflictInserts,
		ConflictRemoves: s.ConflictRemoves,
	}
}

// NodeProfile reports the network's per-node activation work.
func (m netMatcher) NodeProfile() []engine.NodeProfileEntry {
	return nodeProfile(m.net.NodeProfile())
}

// Indexed reports the network's hash-index state.
func (m netMatcher) Indexed() engine.IndexReport {
	info := m.net.IndexInfo()
	return engine.IndexReport{
		IndexedNodes:  info.IndexedJoins,
		FallbackNodes: info.FallbackJoins,
		Buckets:       info.Buckets,
		MaxBucket:     info.MaxBucket,
	}
}

// preteMatcher adapts *prete.Matcher with its capabilities.
type preteMatcher struct{ *prete.Matcher }

// MatchStats reports the parallel matcher's work, including the
// work-stealing scheduler's counters.
func (m preteMatcher) MatchStats() engine.MatchStats {
	s := m.Matcher.Stats()
	ms := engine.MatchStats{
		Changes:         s.Changes,
		Comparisons:     s.Comparisons,
		ConflictInserts: s.ConflictInserts,
		ConflictRemoves: s.ConflictRemoves,
		Tasks:           s.Tasks,
		Steals:          s.Steals,
		Parks:           s.Parks,
		Wakeups:         s.Wakeups,
		InlineBatches:   s.InlineBatches,
		ResidentWorkers: s.ResidentWorkers,
	}
	if len(s.PerWorker) > 0 {
		ms.Workers = make([]engine.WorkerStat, len(s.PerWorker))
		for i, w := range s.PerWorker {
			ms.Workers[i] = engine.WorkerStat{Executed: w.Executed, Stolen: w.Stolen, Parked: w.Parked}
		}
	}
	return ms
}

// NodeProfile reports the parallel matcher's per-node work.
func (m preteMatcher) NodeProfile() []engine.NodeProfileEntry {
	return nodeProfile(m.Matcher.NodeProfile())
}

// LossReport converts the parallel matcher's loss-factor accounting to
// the engine-neutral shape.
func (m preteMatcher) LossReport() engine.LossReport {
	l := m.Matcher.Loss()
	r := engine.LossReport{
		Workers:               l.Workers,
		Batches:               l.Batches,
		ApplySeconds:          l.ApplySeconds,
		SeedSeconds:           l.SeedSeconds,
		ActiveSeconds:         l.ActiveSeconds,
		MergeSeconds:          l.MergeSeconds,
		SerialEstimateSeconds: l.SerialEstimateSeconds,
		TrueSpeedup:           l.TrueSpeedup,
		NominalConcurrency:    l.NominalConcurrency,
		LossFactor:            l.LossFactor,
	}
	conv := func(ps []prete.PhaseSeconds) []engine.PhaseSeconds {
		out := make([]engine.PhaseSeconds, len(ps))
		for i, p := range ps {
			out[i] = engine.PhaseSeconds{Phase: p.Phase, Seconds: p.Seconds}
		}
		return out
	}
	r.Phases = conv(l.Phases)
	for _, w := range l.PerWorker {
		r.PerWorker = append(r.PerWorker, engine.WorkerLoss{
			Worker: w.Worker, Tasks: w.Tasks, Phases: conv(w.Phases),
		})
	}
	for _, b := range l.TaskSizes {
		r.TaskSizes = append(r.TaskSizes, engine.TaskBucket{UpToNanos: b.UpToNanos, Count: b.Count})
	}
	for _, c := range l.Decomposition {
		r.Decomposition = append(r.Decomposition, engine.LossComponent{
			Name: c.Name, Seconds: c.Seconds, Share: c.Share,
		})
	}
	return r
}

// Indexed reports the parallel matcher's bucket state.
func (m preteMatcher) Indexed() engine.IndexReport {
	info := m.Matcher.IndexInfo()
	return engine.IndexReport{
		IndexedNodes:  info.IndexedNodes,
		FallbackNodes: info.FallbackNodes,
		Buckets:       info.Buckets,
		MaxBucket:     info.MaxBucket,
	}
}

// treatMatcher adapts *treat.Matcher with its capabilities.
type treatMatcher struct{ *treat.Matcher }

// MatchStats reports the TREAT matcher's work.
func (m treatMatcher) MatchStats() engine.MatchStats {
	s := m.Matcher.Stats
	return engine.MatchStats{
		Changes:         int64(s.Changes),
		Comparisons:     s.JoinTuplesTested,
		ConflictInserts: s.ConflictInserts,
		ConflictRemoves: s.ConflictRemoves,
	}
}

// Indexed reports the TREAT matcher's bucket state.
func (m treatMatcher) Indexed() engine.IndexReport {
	info := m.Matcher.IndexInfo()
	return engine.IndexReport{
		IndexedNodes:  info.IndexedCEs,
		FallbackNodes: info.FallbackCEs,
		Buckets:       info.Buckets,
		MaxBucket:     info.MaxBucket,
	}
}

// fullstateMatcher adapts *fullstate.Matcher (stats only: the
// full-state scheme stores every CE combination, nothing is indexed).
type fullstateMatcher struct{ *fullstate.Matcher }

// MatchStats reports the full-state matcher's work.
func (m fullstateMatcher) MatchStats() engine.MatchStats {
	s := m.Matcher.Stats
	return engine.MatchStats{
		Changes:         int64(s.Changes),
		Comparisons:     s.ConsistencyChecks,
		ConflictInserts: s.ConflictInserts,
		ConflictRemoves: s.ConflictRemoves,
	}
}

// naiveMatcher adapts *naive.Matcher (stats only).
type naiveMatcher struct{ *naive.Matcher }

// MatchStats reports the naive matcher's work.
func (m naiveMatcher) MatchStats() engine.MatchStats {
	s := m.Matcher.Stats
	return engine.MatchStats{
		Changes:     int64(s.Changes),
		Comparisons: s.ElementsMatched,
	}
}

// Productions returns the compiled productions.
func (s *System) Productions() []*ops5.Production { return s.prods }

// MatcherKind reports which matcher the system uses.
func (s *System) MatcherKind() MatcherKind { return s.matcher }

// Network returns the compiled Rete network when the serial matcher is
// in use (nil otherwise); useful for statistics.
func (s *System) Network() *rete.Network { return s.net }

// ParallelMatcher returns the parallel matcher when in use (else nil).
func (s *System) ParallelMatcher() *prete.Matcher { return s.pm }

// Assert inserts WMEs built with ops5.NewWME as one batch.
func (s *System) Assert(wmes ...*ops5.WME) {
	s.Engine.Load(wmes)
}
