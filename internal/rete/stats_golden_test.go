package rete_test

import (
	"testing"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/wm"
	"repro/internal/workload"
)

// The golden Stats below pin the match work the serial network does on
// two fixed runs: every field of rete.Stats, recorded before the
// network's stored tokens were given slot and pointer links. How a
// stored token is found and unlinked may change; the joins performed,
// the activations emitted and the conflict-set deltas may not. A change
// that moves any count here changes the algorithm, not its bookkeeping.

// fraudGoldenStats is the fraud pack over 40 posts of 256 events
// (seed 1, 50 cards, window 20), each post ingested as the stream
// endpoint does: clock advance (expiring what came due), assert, run to
// quiescence.
var fraudGoldenStats = rete.Stats{
	Changes:               22060,
	Activations:           [7]int64{22060, 22880, 62260, 74600, 1580, 100726, 100726},
	ConstTests:            45700,
	TokenComparisons:      948459,
	IndexedProbes:         111455,
	ConflictInserts:       50363,
	ConflictRemoves:       50363,
	AffectedProductions:   22880,
	TwoInputPerProduction: [16]int64{0, 1580, 820, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3974, 0, 0, 16506},
}

// mannersGoldenStats is Miss Manners at its default size, run to halt.
var mannersGoldenStats = rete.Stats{
	Changes:               144,
	Activations:           [7]int64{144, 144, 194, 558, 79, 1020, 445},
	ConstTests:            413,
	TokenComparisons:      4301,
	IndexedProbes:         431,
	ConflictInserts:       223,
	ConflictRemoves:       222,
	AffectedProductions:   349,
	TwoInputPerProduction: [16]int64{0, 72, 59, 68, 2, 3, 55, 3, 5, 1, 5, 1, 3, 1, 1, 70},
}

// newSerialEngine compiles src into a serial network wired to a LEX
// conflict set and an engine over it.
func newSerialEngine(t *testing.T, src string) (*engine.Engine, *rete.Network) {
	t.Helper()
	prog, err := ops5.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	net, err := rete.Compile(prog.Productions)
	if err != nil {
		t.Fatal(err)
	}
	cs := conflict.NewSet(conflict.LEX)
	net.OnInsert = cs.Insert
	net.OnRemove = cs.Remove
	eng := engine.New(wm.New(), cs, netMatcher{net})
	eng.Load(prog.InitialWM)
	return eng, net
}

// netMatcher adapts a network to engine.Matcher.
type netMatcher struct{ n *rete.Network }

func (m netMatcher) Apply(changes []ops5.Change) { m.n.Apply(changes) }

func TestStatsGoldenFraud(t *testing.T) {
	const posts, perPost = 40, 256
	eng, net := newSerialEngine(t, workload.FraudRules)
	events := workload.FraudEvents(workload.FraudParams{Cards: 50, Events: posts * perPost, Window: 20, Seed: 1})
	for p := 0; p < posts; p++ {
		changes, maxTS := workload.Facts(events[p*perPost : (p+1)*perPost])
		eng.AdvanceClock(maxTS)
		eng.ApplyChanges(changes)
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Expired == 0 || eng.Fired == 0 {
		t.Fatalf("run expired %d and fired %d; the pin needs both", eng.Expired, eng.Fired)
	}
	checkGoldenStats(t, net.Stats, fraudGoldenStats)
}

func TestStatsGoldenManners(t *testing.T) {
	wmes, err := workload.MannersWM(workload.DefaultMannersParams())
	if err != nil {
		t.Fatal(err)
	}
	eng, net := newSerialEngine(t, workload.MissManners)
	eng.Load(wmes)
	eng.MaxCycles = 5000
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !eng.Halted {
		t.Fatal("manners did not halt")
	}
	checkGoldenStats(t, net.Stats, mannersGoldenStats)
}

func checkGoldenStats(t *testing.T, got, want rete.Stats) {
	t.Helper()
	if got != want {
		t.Errorf("rete.Stats moved:\n got  %#v\n want %#v", got, want)
	}
}
