package matchtest_test

import (
	"sort"
	"testing"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/matchtest"
	"repro/internal/naive"
	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/wm"
	"repro/internal/workload"
)

// applier is the matcher surface an engine drives.
type applier interface{ Apply([]ops5.Change) }

// streamEngine wires a matcher to a fresh engine over src's productions.
func streamEngine(t *testing.T, prods []*ops5.Production, build func(cs *conflict.Set) applier) *engine.Engine {
	t.Helper()
	cs := conflict.NewSet(conflict.LEX)
	return engine.New(wm.New(), cs, build(cs))
}

// ingest commits one post the way the stream endpoint does: clock
// advance (expiring whatever came due as one delete batch), assert, run
// to quiescence (each cycle ticks the clock and expires what came due).
func ingest(t *testing.T, eng *engine.Engine, events []workload.Event) {
	t.Helper()
	changes, maxTS := workload.Facts(events)
	eng.AdvanceClock(maxTS)
	eng.ApplyChanges(changes)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func conflictKeys(cs *conflict.Set) []string {
	var keys []string
	for _, in := range cs.Instantiations() {
		keys = append(keys, in.Key())
	}
	sort.Strings(keys)
	return keys
}

// TestStreamExpiryDifferential streams the TTL'd event packs through
// serial Rete and the naive rematcher in 256-event posts. A post's
// events share one deadline, so a whole window expires in one delete
// batch (at the next post's clock jump, or mid-run once enough cycles
// have ticked), and alerts age out so that the packs' negated alert
// conditions unblock again. After every post the two engines must agree on the conflict
// set, on firings and on expiries, and Rete must never have been asked
// to remove something it does not hold.
func TestStreamExpiryDifferential(t *testing.T) {
	// The naive rematcher's three-way self-join over a 256-event window
	// is what bounds the fraud case's length.
	const perPost = 256
	cases := []struct {
		name, rules string
		posts       int
		events      []workload.Event
	}{
		{"fraud", workload.FraudRules, 6, workload.FraudEvents(workload.FraudParams{
			Cards: 50, Events: 6 * perPost, Window: 20, Seed: 3})},
		{"monitor", workload.MonitorRules, 16, workload.MonitorEvents(workload.MonitorParams{
			Hosts: 20, Events: 16 * perPost, Window: 15, Seed: 5})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := ops5.Parse(tc.rules)
			if err != nil {
				t.Fatal(err)
			}
			var net *rete.Network
			reteEng := streamEngine(t, prog.Productions, func(cs *conflict.Set) applier {
				if net, err = rete.Compile(prog.Productions); err != nil {
					t.Fatal(err)
				}
				net.OnInsert, net.OnRemove = cs.Insert, cs.Remove
				return net
			})
			naiveEng := streamEngine(t, prog.Productions, func(cs *conflict.Set) applier {
				m, err := naive.New(prog.Productions)
				if err != nil {
					t.Fatal(err)
				}
				m.OnInsert, m.OnRemove = cs.Insert, cs.Remove
				return m
			})
			// The change-log sink sees every committed batch; count the
			// delete batches that retract a whole post's window.
			wholeWindows := 0
			reteEng.Sink = func(changes []ops5.Change, _ []string) {
				if len(changes) >= perPost && changes[0].Kind == ops5.Delete {
					wholeWindows++
				}
			}
			for p := 0; p < tc.posts; p++ {
				batch := tc.events[p*perPost : (p+1)*perPost]
				ingest(t, reteEng, batch)
				ingest(t, naiveEng, batch)
				want, got := conflictKeys(naiveEng.CS), conflictKeys(reteEng.CS)
				if d := matchtest.Diff(want, got); d != "" {
					t.Fatalf("post %d: rete conflict set differs from naive:\n%s", p, d)
				}
				if reteEng.Fired != naiveEng.Fired || reteEng.Expired != naiveEng.Expired {
					t.Fatalf("post %d: rete fired/expired %d/%d, naive %d/%d",
						p, reteEng.Fired, reteEng.Expired, naiveEng.Fired, naiveEng.Expired)
				}
				if net.Stats.Anomalies != 0 {
					t.Fatalf("post %d: %d removal anomalies", p, net.Stats.Anomalies)
				}
			}
			alertsExpired := reteEng.Fired - len(reteEng.WM.OfClass("alert"))
			if wholeWindows < tc.posts-2 || alertsExpired == 0 {
				t.Fatalf("stream exercised too little: %d whole-window expiries, %d alerts expired",
					wholeWindows, alertsExpired)
			}
		})
	}
}
