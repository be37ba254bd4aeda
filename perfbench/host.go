package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/ops5"
	"repro/internal/server"
	"repro/internal/sym"
)

// engineHost executes workload calls directly against in-process
// engines, one core.System per session, through the engine layer's
// public entry points (AdvanceClock, ApplyChanges, RunContext) and,
// when durable, durable.Create / Log.Append as the engine's sink. It
// is both the serial-Rete oracle the end-to-end checks compare psmd
// against and the engine pass of the traced run; with a tracer every
// entry-point call is recorded as a span.
type engineHost struct {
	tr *tracer

	// serial forces serial Rete whatever matcher a create asks for
	// (the oracle).
	serial bool
	// dir, when set, makes every session durable under it, as psmd
	// does with -data-dir and -fsync=always; ship additionally tees
	// each WAL record into a standby (the replication path without
	// cluster networking).
	dir  string
	ship bool
	// capture, when set, receives every committed change batch in
	// commit order (the matcher-replay script).
	capture func([]ops5.Change)

	sessions map[string]*hostSession

	// Durable-layer observations (dir set).
	walBytes int64

	// cycleEnd is when the engine's last recognize-act span ended, while
	// RunContext may still retract what that cycle's clock tick made
	// due; zero otherwise.
	cycleEnd time.Time
}

// hostSession is one in-process session.
type hostSession struct {
	sys     *core.System
	program string
	log     *durable.Log
	standby *durable.Standby
	shipBuf []byte
	dir     string
}

func newEngineHost(tr *tracer) *engineHost {
	return &engineHost{tr: tr, sessions: map[string]*hostSession{}}
}

// exec performs one call; callers read results from session state.
func (h *engineHost) exec(c *call) error {
	if c.kind == kindCreate {
		return h.create(c)
	}
	s := h.sessions[c.session]
	if s == nil {
		return fmt.Errorf("engine host: no session %q", c.session)
	}
	eng := s.sys.Engine
	switch c.kind {
	case kindDelete:
		sp := h.tr.begin("engine.close")
		s.sys.Close()
		h.tr.end(sp)
		if s.log != nil {
			sp = h.tr.begin("durable.remove")
			err := s.log.Close()
			if err == nil {
				err = s.log.Remove()
			}
			h.tr.end(sp)
			if err != nil {
				return err
			}
		}
		if s.standby != nil {
			if err := s.standby.Remove(); err != nil {
				return err
			}
		}
		delete(h.sessions, c.session)
	case kindStream:
		// Mirrors the server's session ingest: clock advance (expiring
		// what came due), the events asserted with their TTLs, then
		// recognize-act cycles to quiescence.
		var maxTS int64
		changes := make([]ops5.Change, 0, len(c.events))
		for _, ev := range c.events {
			if ev.TS > maxTS {
				maxTS = ev.TS
			}
			fields := make([]ops5.Field, 0, len(ev.Attrs)+1)
			for k, v := range ev.Attrs {
				fields = append(fields, ops5.Field{Attr: sym.Intern(k), Val: v})
			}
			if ev.TTL > 0 {
				fields = append(fields, ops5.Field{Attr: ops5.TTLAttr, Val: ops5.Num(float64(ev.TTL))})
			}
			changes = append(changes, ops5.Change{Kind: ops5.Insert, WME: ops5.NewFact(sym.Intern(ev.Class), fields)})
		}
		sp := h.tr.begin("engine.expire")
		eng.AdvanceClock(maxTS)
		h.tr.end(sp)
		sp = h.tr.begin("engine.apply")
		s.sys.ApplyChanges(changes)
		h.tr.end(sp)
		if err := h.run(eng); err != nil {
			return err
		}
	case kindChanges:
		changes, err := specChanges(s.sys, c.specs)
		if err != nil {
			return err
		}
		sp := h.tr.begin("engine.apply")
		s.sys.ApplyChanges(changes)
		h.tr.end(sp)
	case kindRun:
		if err := h.run(eng); err != nil {
			return err
		}
	case kindWM:
		sp := h.tr.begin("engine.read")
		ws := s.sys.WM.Elements()
		if c.class != "" {
			ws = s.sys.WM.OfClass(c.class)
		}
		_ = inprocWires(ws) // the shard's share of a read: conversion, not JSON
		h.tr.end(sp)
	case kindConflicts:
		sp := h.tr.begin("engine.read")
		for _, in := range s.sys.CS.Instantiations() {
			_ = in.Key()
		}
		h.tr.end(sp)
	}
	if s.standby != nil && len(s.shipBuf) > 0 {
		sp := h.tr.begin("durable.ship")
		_, _, err := s.standby.AppendRecords(bytes.NewReader(s.shipBuf))
		h.tr.end(sp)
		s.shipBuf = s.shipBuf[:0]
		if err != nil {
			return fmt.Errorf("standby append: %w", err)
		}
	}
	return nil
}

// run drives recognize-act cycles to quiescence or halt.
func (h *engineHost) run(eng *engine.Engine) error {
	sp := h.tr.begin("engine.run")
	_, err := eng.RunContext(context.Background(), 0)
	h.cycleEnd = time.Time{}
	h.tr.end(sp)
	return err
}

// create compiles a session (and, when durable, creates its log).
func (h *engineHost) create(c *call) error {
	kind := core.SerialRete
	if c.matcher != "" && !h.serial {
		var err error
		if kind, err = core.ParseMatcherKind(c.matcher); err != nil {
			return err
		}
	}
	sp := h.tr.begin("core.compile")
	sys, err := core.NewSystem(c.program, core.Options{Matcher: kind, Workers: c.workers})
	h.tr.end(sp)
	if err != nil {
		return err
	}
	s := &hostSession{sys: sys, program: c.program}
	sys.OnCycle = h.onCycle
	if h.dir != "" {
		s.dir = filepath.Join(h.dir, c.session)
		sp = h.tr.begin("durable.create")
		s.log, err = durable.Create(s.dir, c.body, sys.Engine, durable.Options{
			Fsync:         durable.FsyncAlways,
			SnapshotEvery: 1024,
			ObserveAppend: func(n int) { h.walBytes += int64(n) },
		})
		h.tr.end(sp)
		if err != nil {
			sys.Close()
			return err
		}
		if h.ship {
			if err := h.attachStandby(s); err != nil {
				return err
			}
		}
	}
	log := s.log
	sys.Sink = func(changes []ops5.Change, firedKeys []string) {
		// Inside RunContext, each cycle ticks the logical clock and then
		// retracts what came due: a batch without refraction marks right
		// after a cycle span is that expiry, timed from the cycle's end.
		if !h.cycleEnd.IsZero() {
			if firedKeys == nil && len(changes) > 0 {
				h.tr.add("engine.cycle_expire", h.cycleEnd, time.Now())
			}
			h.cycleEnd = time.Time{}
		}
		if h.capture != nil && len(changes) > 0 {
			h.capture(append([]ops5.Change(nil), changes...))
		}
		if log != nil {
			sp := h.tr.begin("durable.append")
			err := log.Append(changes, firedKeys)
			h.tr.end(sp)
			if err != nil {
				panic(fmt.Sprintf("perfbench: wal append: %v", err)) // local disk in the checkout; nothing to degrade to
			}
		}
	}
	h.sessions[c.session] = s
	return nil
}

// attachStandby mirrors a fresh log into a standby directory and tees
// every later record into it.
func (h *engineHost) attachStandby(s *hostSession) error {
	st, err := durable.OpenStandby(s.dir + ".standby")
	if err != nil {
		return err
	}
	manifest, snap, _, err := s.log.ExportState()
	if err != nil {
		return err
	}
	if _, err := st.InstallSnapshot(manifest, snap); err != nil {
		return err
	}
	s.standby = st
	s.log.SetOnRecord(func(_ int64, framed []byte) { s.shipBuf = append(s.shipBuf, framed...) })
	return nil
}

// onCycle records the engine's own recognize-act spans (match, select
// and act phases) under the current engine.run span.
func (h *engineHost) onCycle(cs obs.CycleSpan) {
	if h.tr == nil || cs.Kind != obs.SpanCycle {
		return
	}
	h.tr.cycle(cs)
	h.cycleEnd = time.Now()
}

// close releases every session still live.
func (h *engineHost) close() {
	for id, s := range h.sessions {
		s.sys.Close()
		if s.log != nil {
			s.log.Close()
		}
		if s.standby != nil {
			s.standby.Close()
		}
		delete(h.sessions, id)
	}
}

// specChanges converts change specs to engine changes exactly as the
// server does: asserts get predicted time tags, and a retract may name
// an element asserted earlier in the same batch.
func specChanges(sys *core.System, specs []server.ChangeSpec) ([]ops5.Change, error) {
	changes := make([]ops5.Change, 0, len(specs))
	pending := map[int]*ops5.WME{}
	retracted := map[int]bool{}
	next := sys.WM.NextTag()
	for i, c := range specs {
		switch c.Op {
		case server.OpAssert:
			fields := make([]ops5.Field, 0, len(c.Attrs))
			for k, v := range c.Attrs {
				fields = append(fields, ops5.Field{Attr: sym.Intern(k), Val: v})
			}
			w := ops5.NewFact(sym.Intern(c.Class), fields)
			pending[next] = w
			next++
			changes = append(changes, ops5.Change{Kind: ops5.Insert, WME: w})
		case server.OpRetract:
			w, ok := sys.WM.Get(c.Tag)
			if !ok {
				w, ok = pending[c.Tag]
			}
			if !ok || retracted[c.Tag] {
				return nil, fmt.Errorf("change %d: no element with tag %d", i, c.Tag)
			}
			retracted[c.Tag] = true
			changes = append(changes, ops5.Change{Kind: ops5.Delete, WME: w})
		}
	}
	return changes, nil
}

// recoverAll snapshots, closes and recovers every durable session,
// checking each recovers an identical working memory. It times
// Log.Snapshot and durable.Recover.
func (h *engineHost) recoverAll() error {
	for id, s := range h.sessions {
		if s.log == nil {
			continue
		}
		want := inprocWM(s.sys.WM.Elements())
		sp := h.tr.begin("durable.snapshot")
		_, err := s.log.Snapshot()
		h.tr.end(sp)
		if err != nil {
			return err
		}
		if err := s.log.Close(); err != nil {
			return err
		}
		s.sys.Close()
		sys, err := core.NewSystem(s.program, core.Options{NoInitialWM: true})
		if err != nil {
			return err
		}
		sp = h.tr.begin("durable.recover")
		log, _, err := durable.Recover(s.dir, sys.Engine, durable.Options{Fsync: durable.FsyncAlways})
		h.tr.end(sp)
		if err != nil {
			sys.Close()
			return fmt.Errorf("recover %s: %w", id, err)
		}
		s.sys, s.log = sys, log
		if got := inprocWM(sys.WM.Elements()); got != want {
			return fmt.Errorf("session %s: recovered working memory differs from the live one", id)
		}
	}
	return nil
}
