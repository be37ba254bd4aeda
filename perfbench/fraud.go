package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/ops5"
	"repro/internal/server"
	"repro/internal/workload"
)

// fraud is the fraud-stream workload: workload.FraudRules in
// fraudSessions in-memory serial-Rete sessions, fed workload.FraudEvents
// as NDJSON stream posts of fraudPost events. Connection c owns the
// sessions s with s % conns == c and posts to them round robin; after
// every fraudReadEvery posts it reads the alerts of the session it
// posted to last. On psmd's default two shards the even sessions share
// one shard and the odd ones the other, so neither ingest nor reads
// wait behind the other connection's ingest. (Reads of the other
// connection's sessions did queue behind it, but a read then either
// waited a whole post or nothing, and the tail percentile flipped
// between the two from run to run.)
type fraud struct {
	conns int
	posts [][][]byte // session -> post -> NDJSON body
	// Per-connection cursor, and per-session count of acknowledged
	// posts (each connection is sequential, so acks arrive in order).
	turn   []int // posts sent
	since  []int // posts since the last read
	last   []int // session of the last post
	sent   []int
	acked  []int
	broken []bool
}

const (
	fraudSessions  = 8
	fraudPost      = 256
	fraudReadEvery = 4
)

func fraudID(s int) string { return fmt.Sprintf("fraud-%d", s) }

// newFraud generates postsPerSession posts for every session from seed.
func newFraud(seed int64, conns, postsPerSession int) *fraud {
	f := &fraud{conns: conns, posts: make([][][]byte, fraudSessions),
		turn: make([]int, conns), since: make([]int, conns), last: make([]int, conns),
		sent: make([]int, fraudSessions), acked: make([]int, fraudSessions), broken: make([]bool, fraudSessions)}
	for s := range f.posts {
		events := workload.FraudEvents(workload.FraudParams{
			Cards: 50, Events: postsPerSession * fraudPost, Window: 20, Seed: seed*1000 + int64(s),
		})
		for len(events) > 0 {
			n := min(fraudPost, len(events))
			f.posts[s] = append(f.posts[s], workload.NDJSON(events[:n]))
			events = events[n:]
		}
	}
	return f
}

func (f *fraud) psmdArgs(string) []string { return nil }

func (f *fraud) initial() []*call {
	out := make([]*call, fraudSessions)
	for s := range out {
		out[s] = newCreate(fraudID(s), workload.FraudRules, "", 0)
	}
	return out
}

func (f *fraud) next(conn int) *call {
	owned := (fraudSessions - conn + f.conns - 1) / f.conns // sessions conn, conn+conns, ...
	if f.since[conn] == fraudReadEvery {
		f.since[conn] = 0
		return &call{kind: kindWM, session: fraudID(f.last[conn]), class: "alert", ack: checkAlerts}
	}
	s := conn + (f.turn[conn]%owned)*f.conns
	f.turn[conn]++
	f.since[conn]++
	f.last[conn] = s
	if f.sent[s] == len(f.posts[s]) {
		return nil
	}
	body := f.posts[s][f.sent[s]]
	f.sent[s]++
	return &call{kind: kindStream, session: fraudID(s), write: true, body: body,
		ack: func(resp []byte) (int, error) {
			var r struct{ Events, Expired int }
			if err := json.Unmarshal(resp, &r); err != nil {
				f.broken[s] = true
				return 0, fmt.Errorf("decode stream response: %w", err)
			}
			f.acked[s]++
			return r.Events + r.Expired, nil
		}}
}

// checkAlerts validates a mid-run alert read: well-formed, alerts only.
func checkAlerts(body []byte) (int, error) {
	_, wmes, err := decodeWM(body)
	if err != nil {
		return 0, err
	}
	for _, w := range wmes {
		if w.Class != "alert" {
			return 0, fmt.Errorf("class filter returned %q", w.Class)
		}
	}
	return 0, nil
}

// streamCall decodes an NDJSON post into the typed events the server's
// StreamApply takes, exactly as the stream handler does.
func streamCall(session string, body []byte) *call {
	c := &call{kind: kindStream, session: session, write: true, body: body}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		var ev workload.Event
		must(json.Unmarshal([]byte(line), &ev))
		spec := server.EventSpec{Class: ev.Class, TS: ev.TS, TTL: ev.TTL, Attrs: map[string]ops5.Value{}}
		for k, v := range ev.Attrs {
			spec.Attrs[k] = jsonValue(v)
		}
		c.events = append(c.events, spec)
	}
	return c
}

// check replays every acknowledged post through in-process serial-Rete
// engines (sessions spread over the CPUs) and compares each session's
// fired and expired counts and final alert working memory with psmd's.
func (f *fraud) check(ctx context.Context, h *harness) error {
	type outcome struct {
		fired, expired int
		alerts         string
		err            error
	}
	want := make([]outcome, fraudSessions)
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			oracle := newEngineHost(nil)
			oracle.serial = true
			defer oracle.close()
			for s := g; s < fraudSessions; s += workers {
				id := fraudID(s)
				err := oracle.exec(newCreate(id, workload.FraudRules, "", 0))
				for _, body := range f.posts[s][:f.acked[s]] {
					if err != nil {
						break
					}
					err = oracle.exec(streamCall(id, body))
				}
				if err != nil {
					want[s].err = err
					continue
				}
				sys := oracle.sessions[id].sys
				want[s] = outcome{fired: sys.Fired, expired: sys.Expired, alerts: inprocWM(sys.WM.OfClass("alert"))}
			}
		}(g)
	}
	wg.Wait()
	for s := 0; s < fraudSessions; s++ {
		id := fraudID(s)
		if f.broken[s] || f.acked[s] != f.sent[s] {
			return fmt.Errorf("%s: %d of %d posts acknowledged", id, f.acked[s], f.sent[s])
		}
		if want[s].err != nil {
			return fmt.Errorf("%s oracle: %w", id, want[s].err)
		}
		var stats struct{ Fired, Expired int }
		raw, err := h.cl.get(ctx, "/v1/sessions/"+id)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &stats); err != nil {
			return fmt.Errorf("%s stats: %w", id, err)
		}
		if stats.Fired != want[s].fired || stats.Expired != want[s].expired {
			return fmt.Errorf("%s: psmd fired %d expired %d, serial Rete fired %d expired %d",
				id, stats.Fired, stats.Expired, want[s].fired, want[s].expired)
		}
		alerts, err := h.cl.must2xx(ctx, &call{kind: kindWM, session: id, class: "alert"})
		if err != nil {
			return err
		}
		got, _, err := decodeWM(alerts)
		if err != nil {
			return err
		}
		if got != want[s].alerts {
			return fmt.Errorf("%s: alert working memory differs from serial Rete", id)
		}
	}
	return nil
}
