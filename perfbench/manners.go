package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/ops5"
	"repro/internal/server"
	"repro/internal/sym"
	"repro/internal/workload"
)

// manners is the manners-durable workload: each connection is a client
// looping over Miss Manners session lifecycles against a durable psmd
// (-data-dir, -fsync=always): create, assert the guests in batches of
// mannersBatch, run to halt, read working memory (checking every guest
// is seated), delete. In the open loop lifecycles start on schedule and
// each later step follows its predecessor.
type manners struct {
	conns  int
	tables []mannersTable
	// Per-connection lifecycle cursor.
	lifecycle []int
	step      []int
	script    [][]*call // the current lifecycle's calls per connection

	mu   sync.Mutex
	live map[string]bool // created and not yet deleted, as acknowledged
}

// mannersTable is one generated guest list with its oracle results.
type mannersTable struct {
	specs      []server.ChangeSpec
	guests     int
	runChanges int // WM changes the run to halt commits (serial Rete oracle)
}

const (
	mannersGuests = 8
	mannersTables = 16 // distinct guest lists; lifecycle k seats list k % mannersTables
	mannersBatch  = 8
)

func newManners(seed int64, conns int) (*manners, error) {
	m := &manners{conns: conns, lifecycle: make([]int, conns), step: make([]int, conns),
		script: make([][]*call, conns), live: map[string]bool{}}
	for t := 0; t < mannersTables; t++ {
		wmes, err := workload.MannersWM(workload.MannersParams{
			Guests: mannersGuests, Hobbies: 3, HobbiesPerGuest: 2, Seed: seed*1000 + int64(t)})
		if err != nil {
			return nil, err
		}
		tab := mannersTable{guests: mannersGuests}
		for _, w := range wmes {
			spec := server.ChangeSpec{Op: server.OpAssert, Class: w.Class(), Attrs: map[string]ops5.Value{}}
			for _, f := range w.Fields() {
				spec.Attrs[sym.Name(f.Attr)] = f.Val
			}
			tab.specs = append(tab.specs, spec)
		}
		if tab.runChanges, err = mannersOracle(tab); err != nil {
			return nil, err
		}
		m.tables = append(m.tables, tab)
	}
	return m, nil
}

// mannersOracle runs a table in-process on serial Rete and returns the
// WM changes its run commits; it fails unless every guest is seated.
func mannersOracle(tab mannersTable) (int, error) {
	sys, err := core.NewSystem(workload.MissManners, core.Options{})
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	changes, err := specChanges(sys, tab.specs)
	if err != nil {
		return 0, err
	}
	sys.ApplyChanges(changes)
	before := sys.TotalChanges
	if _, err := sys.Run(); err != nil {
		return 0, err
	}
	if err := seated(inprocWires(sys.WM.Elements()), tab.guests); err != nil {
		return 0, fmt.Errorf("serial Rete oracle: %w", err)
	}
	return sys.TotalChanges - before, nil
}

// seated checks a finished Manners working memory: a completed seating
// reaches the last seat, and its path seats every guest exactly once.
func seated(wmes []wireWME, guests int) error {
	id := -1.0
	for _, w := range wmes {
		if w.Class == "seating" && w.Attrs["seat2"] == float64(guests) && w.Attrs["path-done"] == "yes" {
			id = w.Attrs["id"].(float64)
		}
	}
	if id < 0 {
		return fmt.Errorf("no completed seating")
	}
	names := map[any]bool{}
	for _, w := range wmes {
		if w.Class == "path" && w.Attrs["id"] == id {
			names[w.Attrs["name"]] = true
		}
	}
	if len(names) != guests {
		return fmt.Errorf("%d of %d guests seated", len(names), guests)
	}
	return nil
}

func (m *manners) psmdArgs(dataDir string) []string {
	return []string{"-data-dir", filepath.Join(dataDir, "psmd-data"), "-fsync", "always"}
}

func (m *manners) initial() []*call { return nil }

// lifecycleCalls builds connection conn's k-th session lifecycle.
func (m *manners) lifecycleCalls(conn, k int) []*call {
	id := m.sessionID(conn, k)
	tab := m.tables[k%len(m.tables)]
	create := newCreate(id, workload.MissManners, "", 0)
	create.ack = func([]byte) (int, error) {
		m.mu.Lock()
		m.live[id] = true
		m.mu.Unlock()
		return 0, nil
	}
	calls := []*call{create}
	for i := 0; i < len(tab.specs); i += mannersBatch {
		batch := tab.specs[i:min(i+mannersBatch, len(tab.specs))]
		c := newChanges(id, batch)
		c.ack = func(body []byte) (int, error) {
			var r struct{ Applied int }
			if err := json.Unmarshal(body, &r); err != nil {
				return 0, err
			}
			return r.Applied, nil
		}
		calls = append(calls, c)
	}
	run := newRun(id)
	run.ack = func(body []byte) (int, error) {
		var r struct{ Halted bool }
		if err := json.Unmarshal(body, &r); err != nil {
			return 0, err
		}
		if !r.Halted {
			return tab.runChanges, fmt.Errorf("run did not halt")
		}
		return tab.runChanges, nil
	}
	read := &call{kind: kindWM, session: id, ack: func(body []byte) (int, error) {
		_, wmes, err := decodeWM(body)
		if err != nil {
			return 0, err
		}
		return 0, seated(wmes, tab.guests)
	}}
	del := &call{kind: kindDelete, session: id, write: true, ack: func([]byte) (int, error) {
		m.mu.Lock()
		delete(m.live, id)
		m.mu.Unlock()
		return 0, nil
	}}
	calls = append(calls, run, read, del)
	for _, c := range calls[1:] {
		c.follows = true // the client's next step; only lifecycles arrive on schedule
	}
	return calls
}

// sessionID names connection conn's k-th session so that it lands on
// psmd shard conn % shards (psmd hashes IDs with FNV-1a over GOMAXPROCS
// shards): each client then has a shard of its own, and a request
// never queues behind the other client's fsync-bound run.
func (m *manners) sessionID(conn, k int) string {
	shards := runtime.NumCPU()
	for j := 0; ; j++ {
		id := fmt.Sprintf("manners-%d-%d-%d", conn, k, j)
		h := fnv.New32a()
		h.Write([]byte(id))
		if int(h.Sum32())%shards == conn%shards {
			return id
		}
	}
}

func (m *manners) next(conn int) *call {
	if m.step[conn] == len(m.script[conn]) {
		m.script[conn] = m.lifecycleCalls(conn, m.lifecycle[conn])
		m.lifecycle[conn]++
		m.step[conn] = 0
	}
	c := m.script[conn][m.step[conn]]
	m.step[conn]++
	return c
}

// check leaves every client's session live after its seating read,
// records each live session's working memory, SIGKILLs psmd, restarts
// it on the same data directory and checks that exactly the live
// sessions came back, each with an identical working memory.
func (m *manners) check(ctx context.Context, h *harness) error {
	for conn := 0; conn < m.conns; conn++ {
		// Finish the lifecycle in flight (through its delete), then
		// run one more up to its seating read.
		for m.step[conn] < len(m.script[conn]) {
			if _, err := h.cl.must2xx(ctx, m.next(conn)); err != nil {
				return err
			}
		}
		for {
			c := m.next(conn)
			if _, err := h.cl.must2xx(ctx, c); err != nil {
				return err
			}
			if c.kind == kindWM {
				break
			}
		}
	}
	want := map[string]string{}
	for id := range m.live {
		body, err := h.cl.must2xx(ctx, &call{kind: kindWM, session: id})
		if err != nil {
			return err
		}
		if want[id], _, err = decodeWM(body); err != nil {
			return err
		}
	}
	if err := h.crashRestart(); err != nil {
		return err
	}
	raw, err := h.cl.get(ctx, "/v1/sessions")
	if err != nil {
		return err
	}
	var listed []struct{ ID string }
	if err := json.Unmarshal(raw, &listed); err != nil {
		return fmt.Errorf("decode session list: %w", err)
	}
	var got []string
	for _, s := range listed {
		got = append(got, s.ID)
	}
	var wantIDs []string
	for id := range want {
		wantIDs = append(wantIDs, id)
	}
	sort.Strings(got)
	sort.Strings(wantIDs)
	if !slices.Equal(got, wantIDs) {
		return fmt.Errorf("after SIGKILL and restart psmd has sessions %v, want the acknowledged live ones %v", got, wantIDs)
	}
	for id, w := range want {
		body, err := h.cl.must2xx(ctx, &call{kind: kindWM, session: id})
		if err != nil {
			return fmt.Errorf("after restart: %w", err)
		}
		g, _, err := decodeWM(body)
		if err != nil {
			return err
		}
		if g != w {
			return fmt.Errorf("session %s recovered a different working memory", id)
		}
	}
	return nil
}
