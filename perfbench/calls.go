package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"repro/internal/ops5"
	"repro/internal/server"
	"repro/internal/sym"
)

// callKind names the /v1 operation a call performs.
type callKind string

const (
	kindCreate    callKind = "create"
	kindDelete    callKind = "delete"
	kindStream    callKind = "stream"
	kindChanges   callKind = "changes"
	kindRun       callKind = "run"
	kindWM        callKind = "wm"
	kindConflicts callKind = "conflicts"
)

// call is one request of a workload script. It carries the typed
// inputs every layer's entry point takes (events for StreamApply,
// change specs for Apply, ...) and the wire body the HTTP layer
// decodes, built once from the same values.
type call struct {
	kind    callKind
	session string
	write   bool // counted as a write (vs read) for latency
	// follows marks a dependent step: in the open loop it leaves as
	// soon as the previous call on its connection returns instead of at
	// a scheduled time.
	follows bool

	program string              // create
	matcher string              // create
	workers int                 // create
	events  []server.EventSpec  // stream
	specs   []server.ChangeSpec // changes
	class   string              // wm filter
	body    []byte              // wire body (create, stream, changes, run)

	// ack, when set, inspects a 2xx response body; it returns the WM
	// changes the client attributes to the call (the unit of
	// psmd_wme_changes_total) or an output mismatch. Nil means the call
	// carries no changes and needs no check.
	ack func(body []byte) (changes int, err error)
}

// method and path give the call's /v1 route.
func (c *call) route() (method, path string) {
	base := "/v1/sessions/" + c.session
	switch c.kind {
	case kindCreate:
		return http.MethodPost, "/v1/sessions"
	case kindDelete:
		return http.MethodDelete, base
	case kindStream:
		return http.MethodPost, base + "/stream"
	case kindChanges:
		return http.MethodPost, base + "/changes"
	case kindRun:
		return http.MethodPost, base + "/run"
	case kindWM:
		if c.class != "" {
			return http.MethodGet, base + "/wm?class=" + c.class
		}
		return http.MethodGet, base + "/wm"
	case kindConflicts:
		return http.MethodGet, base + "/conflicts"
	}
	panic("perfbench: unknown call kind " + string(c.kind))
}

// newCreate builds a session-create call.
func newCreate(id, program, matcher string, workers int) *call {
	body, err := json.Marshal(map[string]any{"id": id, "program": program, "matcher": matcher, "workers": workers})
	must(err)
	return &call{kind: kindCreate, session: id, write: true, program: program, matcher: matcher, workers: workers, body: body}
}

// newChanges builds a change-batch call from typed specs.
func newChanges(id string, specs []server.ChangeSpec) *call {
	type wireChange struct {
		Op    string         `json:"op"`
		Class string         `json:"class,omitempty"`
		Attrs map[string]any `json:"attrs,omitempty"`
		Tag   int            `json:"tag,omitempty"`
	}
	wire := make([]wireChange, len(specs))
	for i, s := range specs {
		wire[i] = wireChange{Op: string(s.Op), Class: s.Class, Tag: s.Tag}
		if len(s.Attrs) > 0 {
			wire[i].Attrs = make(map[string]any, len(s.Attrs))
			for k, v := range s.Attrs {
				wire[i].Attrs[k] = valueJSON(v)
			}
		}
	}
	body, err := json.Marshal(map[string]any{"changes": wire})
	must(err)
	return &call{kind: kindChanges, session: id, write: true, specs: specs, body: body}
}

// changesCall decodes a change-batch wire body back into the typed
// specs the server's Apply takes, exactly as the changes handler does.
func changesCall(session string, body []byte) *call {
	var req struct {
		Changes []struct {
			Op    string
			Class string
			Attrs map[string]any
			Tag   int
		}
	}
	must(json.Unmarshal(body, &req))
	c := &call{kind: kindChanges, session: session, write: true, body: body}
	for _, w := range req.Changes {
		spec := server.ChangeSpec{Op: server.ChangeOp(w.Op), Class: w.Class, Tag: w.Tag}
		if len(w.Attrs) > 0 {
			spec.Attrs = make(map[string]ops5.Value, len(w.Attrs))
			for k, v := range w.Attrs {
				spec.Attrs[k] = jsonValue(v)
			}
		}
		c.specs = append(c.specs, spec)
	}
	return c
}

// newRun builds a run-to-quiescence-or-halt call.
func newRun(id string) *call {
	return &call{kind: kindRun, session: id, write: true, body: []byte(`{"cycles":0}`)}
}

// valueJSON maps an OPS5 value onto its JSON wire form.
func valueJSON(v ops5.Value) any {
	switch v.Kind {
	case ops5.SymValue:
		return v.SymName()
	case ops5.NumValue:
		return v.Num
	}
	return nil
}

// jsonValue maps a JSON wire value onto an OPS5 value, as psmd does.
func jsonValue(v any) ops5.Value {
	switch x := v.(type) {
	case string:
		return ops5.Sym(x)
	case float64:
		return ops5.Num(x)
	}
	return ops5.Value{}
}

// wireWME is a working-memory element as /v1 reports it.
type wireWME struct {
	Tag   int            `json:"tag"`
	Class string         `json:"class"`
	Attrs map[string]any `json:"attrs"`
}

// wmeWire converts an in-process WME to its /v1 form.
func wmeWire(w *ops5.WME) wireWME {
	out := wireWME{Tag: w.TimeTag, Class: w.Class(), Attrs: map[string]any{}}
	for _, f := range w.Fields() {
		out.Attrs[sym.Name(f.Attr)] = valueJSON(f.Val)
	}
	return out
}

// canonicalWM renders a working-memory listing as canonical JSON
// (ordered by tag; encoding/json sorts attribute keys), so listings
// from psmd and from an in-process engine compare byte for byte.
func canonicalWM(wmes []wireWME) string {
	s := append([]wireWME(nil), wmes...)
	sort.Slice(s, func(i, j int) bool { return s[i].Tag < s[j].Tag })
	b, err := json.Marshal(s)
	must(err)
	return string(b)
}

// decodeWM parses a /wm response body into its canonical form.
func decodeWM(body []byte) (string, []wireWME, error) {
	var wmes []wireWME
	if err := json.Unmarshal(body, &wmes); err != nil {
		return "", nil, fmt.Errorf("decode wm: %w", err)
	}
	return canonicalWM(wmes), wmes, nil
}

// inprocWires converts in-process WMEs to their /v1 form.
func inprocWires(ws []*ops5.WME) []wireWME {
	out := make([]wireWME, len(ws))
	for i, w := range ws {
		out[i] = wmeWire(w)
	}
	return out
}

// inprocWM renders in-process WMEs in the canonical form.
func inprocWM(ws []*ops5.WME) string { return canonicalWM(inprocWires(ws)) }

// conflictKeys parses a /conflicts response into its sorted
// instantiation keys.
func conflictKeys(body []byte) ([]string, error) {
	var insts []struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(body, &insts); err != nil {
		return nil, fmt.Errorf("decode conflicts: %w", err)
	}
	keys := make([]string, len(insts))
	for i, in := range insts {
		keys[i] = in.Key
	}
	sort.Strings(keys)
	return keys, nil
}

// must panics on an error only a bug in the benchmark can produce
// (encoding static types).
func must(err error) {
	if err != nil {
		panic(err)
	}
}
