package workload

// Streaming event workloads: rule packs over TTL'd event facts plus
// deterministic generators, driven through POST /v1/sessions/{id}/stream
// (NDJSON) or asserted directly. Both packs are windowed joins — the
// window is the event TTL, enforced by the engine's logical clock, so
// "three transactions in the last W ticks" is just a three-way
// self-join over whatever events are still alive.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/ops5"
	"repro/internal/sym"
)

// FraudRules is the fraud-detection pack: velocity checks over expiring
// transaction events. A txn lives Window ticks (the generator sets
// ^__ttl); three live txns on one card mean three transactions within
// the window and raise a velocity alert, any single live txn over 900
// raises a large-amount alert. Alerts are themselves events (^__ttl on
// the make), so a quiet card's alert ages out and the card can alert
// again later — no retraction rules needed.
const FraudRules = `
(literalize txn card amount id __ttl)
(literalize alert card kind __ttl)

(p velocity-alert
    (txn ^card <c> ^id <i1>)
    (txn ^card <c> ^id { <i2> > <i1> })
    (txn ^card <c> ^id { <i3> > <i2> })
   -(alert ^card <c> ^kind velocity)
  -->
    (make alert ^card <c> ^kind velocity ^__ttl 50))

(p large-txn-alert
    (txn ^card <c> ^amount > 900 ^id <i>)
   -(alert ^card <c> ^kind large)
  -->
    (make alert ^card <c> ^kind large ^__ttl 50))
`

// MonitorRules is the monitoring-alert pack: a threshold breach must be
// sustained — three samples over 90 from one host, all still inside the
// TTL window — before an alert fires. The alert expires after 30 ticks,
// modelling auto-resolve once the host goes quiet or healthy.
const MonitorRules = `
(literalize sample host value id __ttl)
(literalize alert host __ttl)

(p sustained-breach
    (sample ^host <h> ^value > 90 ^id <i1>)
    (sample ^host <h> ^value > 90 ^id { <i2> > <i1> })
    (sample ^host <h> ^value > 90 ^id { <i3> > <i2> })
   -(alert ^host <h>)
  -->
    (make alert ^host <h> ^__ttl 30))
`

// Event is one generated stream event, shaped for the stream endpoint's
// NDJSON lines: attrs are JSON-native (string or float64), TS advances
// the session's logical clock, TTL makes the fact expire.
type Event struct {
	Class string         `json:"class"`
	Attrs map[string]any `json:"attrs,omitempty"`
	TS    int64          `json:"ts,omitempty"`
	TTL   int            `json:"ttl,omitempty"`
}

// NDJSON renders events as newline-delimited JSON, the wire format of
// POST /v1/sessions/{id}/stream.
func NDJSON(events []Event) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			panic(fmt.Sprintf("workload: encode event: %v", err)) // static types; cannot fail
		}
	}
	return buf.Bytes()
}

// Facts converts events into one insert batch, the in-process
// counterpart of the stream endpoint's decoding: each event becomes a
// fact of its class with its attributes (strings as symbols, numbers as
// numbers, in sorted attribute order) plus ^__ttl when TTL is set. It
// also returns the batch's largest timestamp, the clock an ingest of the
// batch advances to before asserting it.
func Facts(events []Event) (changes []ops5.Change, maxTS int64) {
	changes = make([]ops5.Change, 0, len(events))
	for _, ev := range events {
		if ev.TS > maxTS {
			maxTS = ev.TS
		}
		attrs := make([]string, 0, len(ev.Attrs))
		for k := range ev.Attrs {
			attrs = append(attrs, k)
		}
		sort.Strings(attrs)
		fields := make([]ops5.Field, 0, len(attrs)+1)
		for _, k := range attrs {
			var v ops5.Value
			switch x := ev.Attrs[k].(type) {
			case string:
				v = ops5.Sym(x)
			case float64:
				v = ops5.Num(x)
			default:
				panic(fmt.Sprintf("workload: event attr %s: unsupported type %T", k, x))
			}
			fields = append(fields, ops5.Field{Attr: sym.Intern(k), Val: v})
		}
		if ev.TTL > 0 {
			fields = append(fields, ops5.Field{Attr: ops5.TTLAttr, Val: ops5.Num(float64(ev.TTL))})
		}
		changes = append(changes, ops5.Change{Kind: ops5.Insert, WME: ops5.NewFact(sym.Intern(ev.Class), fields)})
	}
	return changes, maxTS
}

// FraudParams configures the fraud-detection event generator.
type FraudParams struct {
	// Cards is the distinct card population.
	Cards int
	// Events is the number of transactions to generate.
	Events int
	// Window is the velocity window in logical ticks (each txn's TTL).
	Window int
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultFraudParams returns the calibration configuration.
func DefaultFraudParams() FraudParams {
	return FraudParams{Cards: 50, Events: 2000, Window: 20, Seed: 23}
}

// FraudEvents generates a deterministic transaction stream. The clock
// advances one tick per four transactions. Background traffic spreads
// uniformly over the card population (rarely three-in-window for any
// one card); every ~40th transaction starts a hot burst — one card
// transacting three or four times in quick succession, which lands
// inside the window and trips the velocity rule. About 4% of amounts
// exceed the large-txn threshold.
func FraudEvents(p FraudParams) []Event {
	rng := rand.New(rand.NewSource(p.Seed))
	events := make([]Event, 0, p.Events)
	txn := func(i int, card int) Event {
		amount := 1 + rng.Intn(500)
		if rng.Intn(25) == 0 {
			amount = 901 + rng.Intn(1100)
		}
		return Event{
			Class: "txn",
			Attrs: map[string]any{
				"card":   fmt.Sprintf("c%d", card),
				"amount": float64(amount),
				"id":     float64(i),
			},
			TS:  int64(i/4) + 1,
			TTL: p.Window,
		}
	}
	for i := 0; len(events) < p.Events; i++ {
		if i%40 == 39 { // hot burst: one card, 3-4 rapid txns
			card := rng.Intn(p.Cards)
			for n := 3 + rng.Intn(2); n > 0 && len(events) < p.Events; n-- {
				events = append(events, txn(len(events), card))
			}
			continue
		}
		events = append(events, txn(len(events), rng.Intn(p.Cards)))
	}
	return events
}

// MonitorParams configures the monitoring-alert event generator.
type MonitorParams struct {
	// Hosts is the monitored host population.
	Hosts int
	// Events is the number of metric samples to generate.
	Events int
	// Window is the sustain window in logical ticks (each sample's TTL).
	Window int
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultMonitorParams returns the calibration configuration.
func DefaultMonitorParams() MonitorParams {
	return MonitorParams{Hosts: 20, Events: 2000, Window: 15, Seed: 29}
}

// MonitorEvents generates a deterministic metric-sample stream: healthy
// hosts report values well under the threshold; occasionally one host
// enters a breach episode and reports several consecutive over-90
// samples, enough to sustain inside the window and raise an alert.
func MonitorEvents(p MonitorParams) []Event {
	rng := rand.New(rand.NewSource(p.Seed))
	events := make([]Event, 0, p.Events)
	sample := func(i, host, value int) Event {
		return Event{
			Class: "sample",
			Attrs: map[string]any{
				"host":  fmt.Sprintf("h%d", host),
				"value": float64(value),
				"id":    float64(i),
			},
			TS:  int64(i/4) + 1,
			TTL: p.Window,
		}
	}
	for i := 0; len(events) < p.Events; i++ {
		if i%50 == 49 { // breach episode: one host sustains over threshold
			host := rng.Intn(p.Hosts)
			for n := 3 + rng.Intn(3); n > 0 && len(events) < p.Events; n-- {
				events = append(events, sample(len(events), host, 91+rng.Intn(9)))
			}
			continue
		}
		events = append(events, sample(len(events), rng.Intn(p.Hosts), 10+rng.Intn(70)))
	}
	return events
}
