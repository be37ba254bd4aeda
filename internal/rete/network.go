// Package rete implements the Rete match algorithm of Forgy (1982) as
// described in §2.2 of the paper: a dataflow network compiled from
// production left-hand sides, with constant-test nodes, alpha (wme)
// memories, two-input and-nodes and not-nodes, beta (token) memories and
// terminal nodes. Node sharing between productions, incremental
// add/remove processing, and per-activation tracing hooks are all
// implemented; the trace is the input to the PSM multiprocessor
// simulator (internal/psm), exactly as in §6 of the paper.
//
// The exported node structures carry the mutexes used by the parallel
// runtime in internal/prete; the serial entry points in this package
// never take them.
package rete

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/ops5"
	"repro/internal/sym"
)

// constKind discriminates single-WME test forms in the alpha network.
type constKind uint8

const (
	ctAlways  constKind = iota // class root: class test already applied
	ctConst                    // attr pred constant
	ctDisj                     // attr in {constants}
	ctAttrRel                  // attr pred attr2 (intra-element variable test)
)

// ConstTest is one single-WME test performed in the alpha network.
// Attributes are carried as interned symbol IDs (names kept for
// diagnostics), so evaluation never hashes a string: constant-test
// dispatch is integer field lookup plus value compare.
type ConstTest struct {
	Kind    constKind
	Attr    string
	AttrID  sym.ID
	Pred    ops5.Predicate
	Val     ops5.Value
	Disj    []ops5.Value
	Attr2   string
	Attr2ID sym.ID
}

// Eval applies the test to a WME (class already checked by the root).
func (t *ConstTest) Eval(w *ops5.WME) bool {
	switch t.Kind {
	case ctAlways:
		return true
	case ctConst:
		return t.Pred.Compare(w.GetID(t.AttrID), t.Val)
	case ctDisj:
		v := w.GetID(t.AttrID)
		for _, d := range t.Disj {
			if v.Equal(d) {
				return true
			}
		}
		return false
	case ctAttrRel:
		return t.Pred.Compare(w.GetID(t.AttrID), w.GetID(t.Attr2ID))
	default:
		return false
	}
}

// key returns a canonical identity used for node sharing.
func (t *ConstTest) key() string {
	switch t.Kind {
	case ctAlways:
		return "T"
	case ctConst:
		return "c|" + t.Attr + "|" + t.Pred.String() + "|" + t.Val.String()
	case ctDisj:
		parts := make([]string, len(t.Disj))
		for i, v := range t.Disj {
			parts[i] = v.String()
		}
		sort.Strings(parts)
		return "d|" + t.Attr + "|" + strings.Join(parts, ",")
	case ctAttrRel:
		return "r|" + t.Attr + "|" + t.Pred.String() + "|" + t.Attr2
	default:
		return "?"
	}
}

// String renders the test for diagnostics.
func (t *ConstTest) String() string { return t.key() }

// testsByKey sorts tests and their precomputed keys together.
type testsByKey struct {
	tests []ConstTest
	keys  []string
}

func (s *testsByKey) Len() int           { return len(s.tests) }
func (s *testsByKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *testsByKey) Swap(i, j int) {
	s.tests[i], s.tests[j] = s.tests[j], s.tests[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// ConstNode is a node in the alpha test chain. Passing WMEs flow to the
// children and, if present, into the output alpha memory.
type ConstNode struct {
	ID       int
	Test     ConstTest
	Children []*ConstNode
	Mem      *AlphaMem
	// testKey caches Test.key() for node sharing during compilation.
	testKey string
	// compiled, when non-nil, is the closure-specialised test (see
	// EnableCompiledDispatch).
	compiled func(*ops5.WME) bool
	// SharedBy counts the condition elements compiled onto this node;
	// >1 means the node is shared between CEs (possibly across
	// productions), the sharing the paper says is lost under production
	// parallelism (§4).
	SharedBy int
}

// AlphaMem stores the WMEs passing one condition element's constant
// tests, and feeds the two-input nodes attached to its output.
type AlphaMem struct {
	ID int
	// recs holds one record per stored WME. Order carries no meaning:
	// removal swaps the last record into the hole.
	recs []*wmeRec
	// Succs are the two-input nodes whose right input is this memory.
	Succs []*JoinNode
	// ProdRefs lists the (production, LHS index) pairs reading this
	// memory; used for affected-production statistics (§4, E9).
	ProdRefs []ProdRef
	// indexes are the equality-join hash indexes over recs, built at
	// prepare time and shared between joins with the same key spec.
	indexes []*alphaIndex
	// pos maps each stored WME to its record once the memory reaches
	// linearProbeMin items (a short scan finds it before then). A WM
	// change names its WME, so this is the one lookup removal needs.
	pos map[*ops5.WME]*wmeRec
	// Mu guards the memory in the parallel runtime only.
	Mu sync.Mutex
}

// ProdRef identifies one condition element of one production.
type ProdRef struct {
	Production *ops5.Production
	CE         int
	// ord is the production's ordinal in the network, indexing the
	// per-change affected-production counters.
	ord int
}

// wmeRec is one WME stored in one alpha memory. kids chains the tokens
// that joined a left token with this WME at the joins reading the
// memory (through tokRec.prevW/nextW), so a right removal reaches them
// by pointer. stash is scratch for a left removal, which parks the
// removed token's child here to pair it with the re-join's match.
type wmeRec struct {
	w     *ops5.WME
	slot  int32
	kids  *tokRec
	stash *tokRec
}

// Len returns the number of WMEs stored.
func (am *AlphaMem) Len() int { return len(am.recs) }

// insert stores w and returns its record. The position map is built
// lazily at the linearProbeMin crossing and kept thereafter.
func (am *AlphaMem) insert(n *Network, w *ops5.WME) *wmeRec {
	r := n.wrecs.get(&wmeBatches)
	r.w, r.slot = w, int32(len(am.recs))
	if am.pos == nil && len(am.recs) >= linearProbeMin {
		am.pos = make(map[*ops5.WME]*wmeRec, len(am.recs)+1)
		for _, x := range am.recs {
			am.pos[x.w] = x
		}
	}
	if am.pos != nil {
		am.pos[w] = r
	}
	am.recs = append(am.recs, r)
	return r
}

// remove deletes w's record and returns it, or nil when w is absent.
// The last record moves into the hole.
func (am *AlphaMem) remove(w *ops5.WME) *wmeRec {
	var r *wmeRec
	if am.pos == nil {
		for _, x := range am.recs {
			if x.w == w {
				r = x
				break
			}
		}
	} else if r = am.pos[w]; r != nil {
		delete(am.pos, w)
	}
	if r == nil {
		return nil
	}
	last := len(am.recs) - 1
	moved := am.recs[last]
	am.recs[r.slot] = moved
	moved.slot = r.slot
	am.recs[last] = nil
	am.recs = am.recs[:last]
	return r
}

// Token is a sequence of WMEs matching the positive condition elements
// processed so far, in LHS order. Tokens are immutable; extension copies.
// Short tokens (the overwhelmingly common case) store their WMEs in the
// inline arr, so extension is a single allocation.
type Token struct {
	WMEs []*ops5.WME
	arr  [6]*ops5.WME
}

// Extend returns a new token with w appended.
func (t *Token) Extend(w *ops5.WME) *Token {
	nt := &Token{}
	nt.extendFrom(t, w)
	return nt
}

// extendFrom sets t to base's WMEs followed by w (when w is non-nil).
// A copy without w longer than the inline storage shares base's
// immutable slice.
func (t *Token) extendFrom(base *Token, w *ops5.WME) {
	n := len(base.WMEs)
	if w == nil && n > len(t.arr) {
		t.WMEs = base.WMEs
		return
	}
	if w != nil {
		n++
	}
	if n <= len(t.arr) {
		t.WMEs = t.arr[:n]
	} else {
		t.WMEs = make([]*ops5.WME, n)
	}
	copy(t.WMEs, base.WMEs)
	if w != nil {
		t.WMEs[n-1] = w
	}
}

// EqualTo reports structural equality (same WME pointers in order).
func (t *Token) EqualTo(o *Token) bool {
	if len(t.WMEs) != len(o.WMEs) {
		return false
	}
	for i := range t.WMEs {
		if t.WMEs[i] != o.WMEs[i] {
			return false
		}
	}
	return true
}

// String renders the token's time tags.
func (t *Token) String() string {
	parts := make([]string, len(t.WMEs))
	for i, w := range t.WMEs {
		parts[i] = fmt.Sprint(w.TimeTag)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// TokenIDHash folds a token's identity — its WMEs' time tags in order —
// into a uint64. The parallel matcher keys its counted token multisets
// on it. Equal tokens (same WME sequence) always hash equal; collisions
// are possible, so callers re-verify candidates with EqualTo.
func TokenIDHash(tok *Token) uint64 {
	const prime = 1099511628211
	h := ops5.HashSeed
	for _, w := range tok.WMEs {
		bits := uint64(w.TimeTag)
		for i := 0; i < 4; i++ {
			h = (h ^ (bits & 0xffff)) * prime
			bits >>= 16
		}
	}
	return h
}

// BetaMem stores the tokens matching a prefix of a production's positive
// condition elements and feeds the two-input nodes using it as left
// input, plus any terminals.
type BetaMem struct {
	ID int
	// recs holds one record per stored token; each record knows its
	// slot, so removal swaps the last record into the hole without a
	// lookup. Order carries no meaning.
	recs []*tokRec
	// Joins are the two-input nodes whose left input is this memory.
	Joins []*JoinNode
	// Terminals fire when tokens reach this memory.
	Terminals []*Terminal
	// indexes are the equality-join hash indexes over recs, built at
	// prepare time and shared between joins with the same key spec.
	// Index i links its records through tokRec.linkAt(i).
	indexes []*betaIndex
	// Mu guards the memory in the parallel runtime only.
	Mu sync.Mutex
}

// Len returns the number of tokens stored.
func (bm *BetaMem) Len() int { return len(bm.recs) }

// tokRec is one token stored in one beta memory of the serial network,
// with every link its removal needs, so no removal searches:
//   - slot is its position in mem.recs;
//   - link, bucket and more are its places in the memory's join-key
//     buckets;
//   - parent and wrec are the left token and alpha record it was joined
//     from; it sits in both their kids chains (the Rete/UL token tree),
//     which is how a removal on either input finds it by pointer;
//   - negs are its records at the not-nodes reading its memory;
//   - inst is its live instantiation at mem.Terminals[0].
//
// A not-node's pass-through token is a record of its own in the node's
// output memory (parent and wrec nil), reached from its negRec.
type tokRec struct {
	tok  Token
	mem  *BetaMem
	slot int32
	// bucket is the slot of the record's bucket in mem.indexes[0].
	bucket int32
	// parent.kids and wrec.kids chains.
	parent           *tokRec
	wrec             *wmeRec
	prevKid, nextKid *tokRec
	prevW, nextW     *tokRec
	// kids chains the tokens extending this one, through prevKid/nextKid.
	kids *tokRec
	negs *negRec
	inst *ops5.Instantiation
	// stash is scratch for a right removal, which parks this token's
	// child here to pair it with the re-join's match.
	stash *tokRec
	link  link[tokRec]
	// more holds the links for mem.indexes[1:], in the rare memories
	// that feed joins with different key specs.
	more *[]extraLink
}

// extraLink is a tokRec's link in one of its memory's further indexes.
type extraLink struct {
	link   link[tokRec]
	bucket int32
}

// linkAt returns the record's link in its memory's index i.
func (r *tokRec) linkAt(i int) (*link[tokRec], *int32) {
	if i == 0 {
		return &r.link, &r.bucket
	}
	if r.more == nil {
		r.more = new([]extraLink)
	}
	for len(*r.more) < i {
		*r.more = append(*r.more, extraLink{})
	}
	e := &(*r.more)[i-1]
	return &e.link, &e.bucket
}

// store appends r to the memory and links it into every built index.
func (bm *BetaMem) store(r *tokRec) {
	r.mem = bm
	r.slot = int32(len(bm.recs))
	bm.recs = append(bm.recs, r)
	for _, ix := range bm.indexes {
		ix.insert(r, bm.recs)
	}
}

// unstore removes r from the memory by its slot (the last record moves
// into the hole) and unlinks it from every index.
func (bm *BetaMem) unstore(r *tokRec) {
	last := len(bm.recs) - 1
	moved := bm.recs[last]
	bm.recs[r.slot] = moved
	moved.slot = r.slot
	bm.recs[last] = nil
	bm.recs = bm.recs[:last]
	for _, ix := range bm.indexes {
		ix.remove(r)
	}
}

// joinKid links kid, the token formed from parent and wr, into both
// parents' kids chains.
func joinKid(kid, parent *tokRec, wr *wmeRec) {
	kid.parent, kid.wrec = parent, wr
	kid.nextKid = parent.kids
	if parent.kids != nil {
		parent.kids.prevKid = kid
	}
	parent.kids = kid
	kid.nextW = wr.kids
	if wr.kids != nil {
		wr.kids.prevW = kid
	}
	wr.kids = kid
}

// unjoinKid unlinks kid from its parents' kids chains.
func unjoinKid(kid *tokRec) {
	if kid.parent == nil {
		return
	}
	if kid.prevKid != nil {
		kid.prevKid.nextKid = kid.nextKid
	} else {
		kid.parent.kids = kid.nextKid
	}
	if kid.nextKid != nil {
		kid.nextKid.prevKid = kid.prevKid
	}
	if kid.prevW != nil {
		kid.prevW.nextW = kid.nextW
	} else {
		kid.wrec.kids = kid.nextW
	}
	if kid.nextW != nil {
		kid.nextW.prevW = kid.prevW
	}
}

// recBatch is how many records a network's free list holds before it
// hands them to the shared pool, and how many it takes back at once.
const recBatch = 256

// Removed records are recycled. Streaming traffic retracts and rebuilds
// most of the match state every batch, so reusing records keeps that
// state from becoming garbage. Each network keeps a free list of at most
// recBatch records per type (its own goroutine is the only user) and
// trades full batches with a sync.Pool shared by every network, so a
// record costs a slice push and pop, idle sessions pin next to nothing,
// and the garbage collector drains what no network takes back.
var (
	tokBatches sync.Pool
	negBatches sync.Pool
	wmeBatches sync.Pool
)

// recycler is one network's free list of T, backed by a shared pool of
// full batches (*[]*T).
type recycler[T any] struct{ free []*T }

func (c *recycler[T]) get(shared *sync.Pool) *T {
	if len(c.free) == 0 {
		b, ok := shared.Get().(*[]*T)
		if !ok {
			return new(T)
		}
		c.free = *b
	}
	r := c.free[len(c.free)-1]
	c.free[len(c.free)-1] = nil
	c.free = c.free[:len(c.free)-1]
	return r
}

// put zeroes r and keeps it; a record goes back only once nothing links
// to it.
func (c *recycler[T]) put(shared *sync.Pool, r *T) {
	var zero T
	*r = zero
	if len(c.free) == recBatch {
		full := c.free
		shared.Put(&full)
		c.free = make([]*T, 0, recBatch)
	}
	c.free = append(c.free, r)
}

// JoinTest is one inter-element variable consistency test evaluated at a
// two-input node: rightWME[RightAttr] Pred token[LeftIdx][LeftAttr].
// Attributes carry their interned IDs so the join hot path resolves
// fields by integer compare.
type JoinTest struct {
	Pred      ops5.Predicate
	RightAttr string
	RightID   sym.ID
	LeftIdx   int
	LeftAttr  string
	LeftID    sym.ID
}

// Eval applies the test.
func (jt *JoinTest) Eval(tok *Token, w *ops5.WME) bool {
	return jt.Pred.Compare(w.GetID(jt.RightID), tok.WMEs[jt.LeftIdx].GetID(jt.LeftID))
}

// key returns a canonical identity used for node sharing.
func (jt *JoinTest) key() string {
	return jt.Pred.String() + "|" + jt.RightAttr + "|" + strconv.Itoa(jt.LeftIdx) + "|" + jt.LeftAttr
}

// JoinKind discriminates and-nodes from not-nodes.
type JoinKind uint8

// The two-input node kinds.
const (
	JoinPositive JoinKind = iota
	JoinNegative
)

// negRec is a left token's state at one not-node: how many right WMEs
// match it, and while that count is zero, its pass-through record in
// the node's output memory. The left record chains its negRecs through
// next; an indexed not-node buckets them by join key through link, an
// unindexed one keeps them in negList at slot.
type negRec struct {
	left   *tokRec
	join   *JoinNode
	count  int32
	slot   int32
	out    *tokRec
	next   *negRec
	link   link[negRec]
	bucket int32
}

func (r *negRec) linkAt(int) (*link[negRec], *int32) { return &r.link, &r.bucket }

// JoinNode is a two-input node: left input a beta memory (or the dummy
// top), right input an alpha memory. A positive node emits extended
// tokens into Out; a negative node passes its left token through to Out
// when no right WME matches.
type JoinNode struct {
	ID    int
	Kind  JoinKind
	Left  *BetaMem
	Right *AlphaMem
	Tests []JoinTest
	Out   *BetaMem
	// negList holds the left records of a not-node without an equality
	// key, in arrival order (right activations visit them in that
	// order); indexed not-nodes bucket them in negIdx instead.
	negList []*negRec
	// Hash-join state, filled by Network.prepare when Tests contains at
	// least one equality test: leftHash/rightHash compute the join key
	// hash of a token/WME, and leftIdx/rightIdx are the opposite
	// memories' bucket indexes probed by activations. nil means linear
	// fallback.
	leftHash  func(*Token) uint64
	rightHash func(*ops5.WME) uint64
	leftIdx   *betaIndex
	rightIdx  *alphaIndex
	// rightScratch is this node's alpha-bucket probe buffer and
	// kidScratch collects the children a removal unlinks; both are reused
	// across activations so they do not allocate. Safe to reuse: the
	// network is a DAG, so a node is never re-activated while one of its
	// own activations is still running.
	rightScratch []*wmeRec
	kidScratch   []*tokRec
	// negIdx buckets an indexed not-node's left records by join key
	// hash; negCount tracks their number for StateSize. Records are only
	// linked on this node's own left activation, which never nests
	// inside a walk of the same node's buckets (propagation flows
	// strictly downstream).
	negIdx   *chains[negRec, *negRec]
	negCount int
	// compiled, when non-nil, is the closure-specialised test chain.
	compiled func(*Token, *ops5.WME) bool
	// SharedBy counts the productions compiled onto this node.
	SharedBy int
	// Prof accumulates the node's activation work for live hot-node
	// profiling; only the serial runtime writes it.
	Prof NodeProf
	// Mu guards the node in the parallel runtime only.
	Mu sync.Mutex
}

// match reports whether every test passes for (tok, w).
func (j *JoinNode) match(tok *Token, w *ops5.WME) bool {
	for i := range j.Tests {
		if !j.Tests[i].Eval(tok, w) {
			return false
		}
	}
	return true
}

// Terminal announces conflict-set changes for one production.
type Terminal struct {
	ID         int
	Production *ops5.Production
	// posIndex maps token position -> LHS condition-element index.
	posIndex []int
}

// Instantiate builds the instantiation for a complete token. Variable
// bindings are deferred: most instantiations enter and leave the
// conflict set without firing, so the LHS binding walk happens lazily in
// ops5.Instantiation.EvalBindings only when the RHS is evaluated.
func (t *Terminal) Instantiate(tok *Token) *ops5.Instantiation {
	inst := ops5.NewInstantiation(t.Production, len(t.Production.LHS))
	for pos, lhsIdx := range t.posIndex {
		inst.WMEs[lhsIdx] = tok.WMEs[pos]
	}
	return inst
}

// Network is a compiled Rete network over a fixed set of productions.
type Network struct {
	roots    map[sym.ID]*ConstNode
	alphas   []*AlphaMem
	betas    []*BetaMem
	joins    []*JoinNode
	terms    []*Terminal
	prods    []*ops5.Production
	dummyTop *BetaMem

	alphaByKey map[string]*AlphaMem
	joinByKey  map[string]*JoinNode

	nextID int

	// OnInsert and OnRemove receive conflict-set deltas. They must be
	// set before Apply. In the parallel runtime they may be called
	// concurrently.
	OnInsert func(*ops5.Instantiation)
	OnRemove func(*ops5.Instantiation)

	// Tracer, when non-nil, receives one event per node activation.
	Tracer TraceFunc

	// Stats accumulates match statistics across Apply calls.
	Stats Stats

	// ctx is the per-change bookkeeping, one per network, reset
	// between changes.
	ctx applyCtx
	// toks, negs and wrecs recycle removed records.
	toks  recycler[tokRec]
	negs  recycler[negRec]
	wrecs recycler[wmeRec]

	started  bool
	prepared bool
	seq      int64
}

// New returns an empty network with no productions.
func New() *Network {
	n := &Network{
		roots:      make(map[sym.ID]*ConstNode),
		alphaByKey: make(map[string]*AlphaMem),
		joinByKey:  make(map[string]*JoinNode),
	}
	n.dummyTop = n.newBetaMem()
	n.dummyTop.store(&tokRec{})
	return n
}

// Compile builds a network for the given productions.
func Compile(prods []*ops5.Production) (*Network, error) {
	n := New()
	for _, p := range prods {
		if err := n.AddProduction(p); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Productions returns the productions compiled into the network.
func (n *Network) Productions() []*ops5.Production { return n.prods }

// DummyTop returns the top beta memory holding the single empty token.
func (n *Network) DummyTop() *BetaMem { return n.dummyTop }

// Alphas returns the alpha memories (for inspection and statistics).
func (n *Network) Alphas() []*AlphaMem { return n.alphas }

// Joins returns the two-input nodes.
func (n *Network) Joins() []*JoinNode { return n.joins }

// Betas returns the beta memories.
func (n *Network) Betas() []*BetaMem { return n.betas }

// Terminals returns the terminal nodes.
func (n *Network) Terminals() []*Terminal { return n.terms }

func (n *Network) id() int {
	n.nextID++
	return n.nextID
}

func (n *Network) newBetaMem() *BetaMem {
	bm := &BetaMem{ID: n.id()}
	n.betas = append(n.betas, bm)
	return bm
}

// binder records where a variable was first bound.
type binder struct {
	tokenIdx int
	attr     string
}

// AddProduction compiles a production into the network, sharing nodes
// with previously added productions where possible. It must be called
// before the first Apply.
func (n *Network) AddProduction(p *ops5.Production) error {
	if n.started {
		return fmt.Errorf("rete: cannot add production %s after matching has started", p.Name)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	binders := make(map[string]binder)
	curBeta := n.dummyTop
	tokenLen := 0
	term := &Terminal{ID: n.id(), Production: p}

	for ceIdx, ce := range p.LHS {
		am, localBinders, err := n.buildAlpha(p, ceIdx, ce, binders)
		if err != nil {
			return err
		}
		tests, err := n.buildJoinTests(p, ce, binders, localBinders)
		if err != nil {
			return err
		}
		kind := JoinPositive
		if ce.Negated {
			kind = JoinNegative
		}
		j := n.findOrAddJoin(kind, curBeta, am, tests)
		curBeta = j.Out
		if !ce.Negated {
			// Register binders established by this CE.
			for v, b := range localBinders {
				if _, exists := binders[v]; !exists {
					binders[v] = binder{tokenIdx: tokenLen, attr: b}
				}
			}
			term.posIndex = append(term.posIndex, ceIdx)
			tokenLen++
		}
	}
	curBeta.Terminals = append(curBeta.Terminals, term)
	n.terms = append(n.terms, term)
	n.prods = append(n.prods, p)
	return nil
}

// buildAlpha compiles the single-WME tests of a CE into the shared alpha
// network and returns the alpha memory plus the CE-local equality
// binders (var -> attr of first equality occurrence inside this CE).
func (n *Network) buildAlpha(p *ops5.Production, ceIdx int, ce *ops5.CondElement, outer map[string]binder) (*AlphaMem, map[string]string, error) {
	local := make(map[string]string)
	var tests []ConstTest
	for _, at := range ce.Tests {
		for _, t := range at.Terms {
			switch t.Kind {
			case ops5.TermConst:
				tests = append(tests, ConstTest{Kind: ctConst, Attr: at.Attr, AttrID: at.AttrID, Pred: t.Pred, Val: t.Val})
			case ops5.TermDisj:
				tests = append(tests, ConstTest{Kind: ctDisj, Attr: at.Attr, AttrID: at.AttrID, Disj: t.Disj})
			case ops5.TermVar:
				if a, boundHere := local[t.Var]; boundHere {
					// Intra-element test against the local binding.
					if !(t.Pred == ops5.PredEq && a == at.Attr) {
						tests = append(tests, ConstTest{Kind: ctAttrRel, Attr: at.Attr, AttrID: at.AttrID,
							Pred: t.Pred, Attr2: a, Attr2ID: sym.Intern(a)})
					}
					continue
				}
				if _, boundEarlier := outer[t.Var]; boundEarlier {
					continue // becomes a join test
				}
				if t.Pred == ops5.PredEq {
					local[t.Var] = at.Attr
					continue
				}
				return nil, nil, fmt.Errorf(
					"rete: production %s: variable <%s> used with predicate %s before being bound",
					p.Name, t.Var, t.Pred)
			}
		}
	}
	// Canonical order maximises sharing across CEs. Keys are computed
	// once up front: key() builds strings, and calling it inside the
	// sort comparator and child scans below would allocate per compare.
	keys := make([]string, len(tests))
	for i := range tests {
		keys[i] = tests[i].key()
	}
	sort.Sort(&testsByKey{tests, keys})

	root := n.roots[ce.ClassID]
	if root == nil {
		root = &ConstNode{ID: n.id(), Test: ConstTest{Kind: ctAlways}}
		n.roots[ce.ClassID] = root
	}
	root.SharedBy++
	cur := root
	key := "class:" + ce.Class
	for i := range tests {
		key += "/" + keys[i]
		var child *ConstNode
		for _, c := range cur.Children {
			if c.testKey == keys[i] {
				child = c
				break
			}
		}
		if child == nil {
			child = &ConstNode{ID: n.id(), Test: tests[i], testKey: keys[i]}
			cur.Children = append(cur.Children, child)
		}
		child.SharedBy++
		cur = child
	}
	am := n.alphaByKey[key]
	if am == nil {
		am = &AlphaMem{ID: n.id()}
		n.alphaByKey[key] = am
		n.alphas = append(n.alphas, am)
		cur.Mem = am
	}
	am.ProdRefs = append(am.ProdRefs, ProdRef{Production: p, CE: ceIdx, ord: len(n.prods)})
	return am, local, nil
}

// buildJoinTests compiles the inter-element variable tests of a CE.
func (n *Network) buildJoinTests(p *ops5.Production, ce *ops5.CondElement, outer map[string]binder, local map[string]string) ([]JoinTest, error) {
	var tests []JoinTest
	seenEq := make(map[string]bool) // vars whose equality-vs-outer test is already emitted
	for _, at := range ce.Tests {
		for _, t := range at.Terms {
			if t.Kind != ops5.TermVar {
				continue
			}
			b, boundEarlier := outer[t.Var]
			if !boundEarlier {
				continue // local to this CE; handled in alpha
			}
			if t.Pred == ops5.PredEq {
				// The first equality occurrence tests against the outer
				// binding; repeats within the CE were already chained to
				// the local attr by buildAlpha only when the var was
				// local, so emit every equality occurrence here unless
				// it is a same-attr duplicate.
				tk := t.Var + "@" + at.Attr
				if seenEq[tk] {
					continue
				}
				seenEq[tk] = true
			}
			tests = append(tests, JoinTest{
				Pred:      t.Pred,
				RightAttr: at.Attr,
				RightID:   at.AttrID,
				LeftIdx:   b.tokenIdx,
				LeftAttr:  b.attr,
				LeftID:    sym.Intern(b.attr),
			})
		}
	}
	return tests, nil
}

// findOrAddJoin returns a shared or fresh two-input node.
func (n *Network) findOrAddJoin(kind JoinKind, left *BetaMem, right *AlphaMem, tests []JoinTest) *JoinNode {
	key := strconv.Itoa(int(kind)) + "|" + strconv.Itoa(left.ID) + "|" + strconv.Itoa(right.ID)
	tkeys := make([]string, len(tests))
	for i := range tests {
		tkeys[i] = tests[i].key()
	}
	sort.Strings(tkeys)
	key += "|" + strings.Join(tkeys, ";")
	if j := n.joinByKey[key]; j != nil {
		j.SharedBy++
		return j
	}
	j := &JoinNode{
		ID:       n.id(),
		Kind:     kind,
		Left:     left,
		Right:    right,
		Tests:    tests,
		Out:      n.newBetaMem(),
		SharedBy: 1,
	}
	left.Joins = append(left.Joins, j)
	// Prepend so that descendant joins are right-activated before their
	// ancestors: when one WME reaches both inputs of a join (a CE chain
	// where two CEs share an alpha memory), the pair must be emitted
	// exactly once — by the ancestor's token flowing down, not by the
	// descendant's right activation seeing a token that does not exist
	// yet. Activating descendants first guarantees this (Forgy's OPS5
	// ordering; see also Doorenbos 1995 §2.4.1).
	right.Succs = append([]*JoinNode{j}, right.Succs...)
	n.joins = append(n.joins, j)
	n.joinByKey[key] = j
	return j
}
