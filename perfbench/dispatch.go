package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"

	"repro/internal/ops5"
	"repro/internal/server"
	"repro/internal/sym"
	"repro/internal/workload"
)

// dispatch is the dispatch-prete workload: one parallel-Rete session
// (workers = CPUs) over the §4-shaped workload.GenerateProgram.
// Connection 0 posts the workload.GenerateDriver script, dispatchGroup
// driver batches per POST .../changes; connection 1 reads the conflict
// set.
type dispatch struct {
	program string
	groups  []*call
	sent    int
	acked   int
	broken  bool
}

const (
	dispatchID    = "dispatch"
	dispatchGroup = 8
)

func newDispatch(seed int64, groups int) *dispatch {
	p := workload.DefaultProgGenParams()
	p.Seed = seed
	d := &dispatch{program: workload.GenerateProgram(p)}
	batches := workload.GenerateDriver(p, groups*dispatchGroup)
	for g := 0; g < groups; g++ {
		var specs []server.ChangeSpec
		var tags []int
		for _, batch := range batches[g*dispatchGroup : (g+1)*dispatchGroup] {
			for _, ch := range batch {
				if ch.Kind == ops5.Delete {
					specs = append(specs, server.ChangeSpec{Op: server.OpRetract, Tag: ch.WME.TimeTag})
					continue
				}
				spec := server.ChangeSpec{Op: server.OpAssert, Class: ch.WME.Class(), Attrs: map[string]ops5.Value{}}
				for _, f := range ch.WME.Fields() {
					spec.Attrs[sym.Name(f.Attr)] = f.Val
				}
				specs = append(specs, spec)
				tags = append(tags, ch.WME.TimeTag)
			}
		}
		c := newChanges(dispatchID, specs)
		c.specs = nil // the script is long; layers below HTTP decode the body again (changesCall)
		c.ack = func(body []byte) (int, error) {
			var r struct {
				Applied int
				Tags    []int
			}
			if err := json.Unmarshal(body, &r); err != nil {
				d.broken = true
				return 0, err
			}
			d.acked++
			if !slices.Equal(r.Tags, tags) {
				d.broken = true
				return r.Applied, fmt.Errorf("psmd assigned tags %v, the script expects %v", r.Tags, tags)
			}
			return r.Applied, nil
		}
		d.groups = append(d.groups, c)
	}
	return d
}

func (d *dispatch) psmdArgs(string) []string { return nil }

func (d *dispatch) initial() []*call {
	return []*call{newCreate(dispatchID, d.program, "prete", runtime.NumCPU())}
}

func (d *dispatch) next(conn int) *call {
	if conn == 1 {
		return &call{kind: kindConflicts, session: dispatchID, ack: func(body []byte) (int, error) {
			_, err := conflictKeys(body)
			return 0, err
		}}
	}
	if d.sent == len(d.groups) {
		return nil
	}
	d.sent++
	return d.groups[d.sent-1]
}

// check compares psmd's final conflict set with a serial-Rete engine
// fed the same acknowledged groups.
func (d *dispatch) check(ctx context.Context, h *harness) error {
	if d.broken || d.acked != d.sent {
		return fmt.Errorf("%d of %d change groups acknowledged as scripted", d.acked, d.sent)
	}
	oracle := newEngineHost(nil)
	oracle.serial = true
	defer oracle.close()
	if err := oracle.exec(d.initial()[0]); err != nil {
		return err
	}
	for _, c := range d.groups[:d.acked] {
		if err := oracle.exec(changesCall(dispatchID, c.body)); err != nil {
			return err
		}
	}
	body, err := h.cl.must2xx(ctx, &call{kind: kindConflicts, session: dispatchID})
	if err != nil {
		return err
	}
	got, err := conflictKeys(body)
	if err != nil {
		return err
	}
	var want []string
	for _, in := range oracle.sessions[dispatchID].sys.CS.Instantiations() {
		want = append(want, in.Key())
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("psmd conflict set (%d instantiations) differs from serial Rete's (%d)", len(got), len(want))
	}
	return nil
}
