package rete

import (
	"fmt"

	"repro/internal/ops5"
)

// NodeKind classifies activations for tracing and cost modelling.
type NodeKind uint8

// The activation kinds recorded in traces.
const (
	// KindRoot is the constant-test chain evaluation for one WM change.
	KindRoot NodeKind = iota
	// KindAlpha is an alpha-memory update.
	KindAlpha
	// KindJoinRight is a right (alpha-side) activation of an and-node.
	KindJoinRight
	// KindJoinLeft is a left (beta-side) activation of an and-node.
	KindJoinLeft
	// KindNegRight is a right activation of a not-node.
	KindNegRight
	// KindNegLeft is a left activation of a not-node.
	KindNegLeft
	// KindTerm is a conflict-set insertion or removal.
	KindTerm
)

// String names the activation kind.
func (k NodeKind) String() string {
	switch k {
	case KindRoot:
		return "root"
	case KindAlpha:
		return "alpha"
	case KindJoinRight:
		return "join-right"
	case KindJoinLeft:
		return "join-left"
	case KindNegRight:
		return "not-right"
	case KindNegLeft:
		return "not-left"
	case KindTerm:
		return "terminal"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ActivationEvent describes one node activation. The Seq/Parent pair
// forms the dependency DAG consumed by the PSM simulator: an activation
// cannot begin before its parent completes.
type ActivationEvent struct {
	// Seq is the unique activation id (> 0).
	Seq int64
	// Parent is the activation that scheduled this one; 0 for the root
	// activation of a WM change.
	Parent int64
	// Change is the index of the WM change within the Apply batch.
	Change int
	// Kind is the node type activated.
	Kind NodeKind
	// NodeID identifies the network node (for exclusive-node modelling).
	NodeID int
	// Dir is Insert or Delete.
	Dir ops5.ChangeKind
	// TestsRun counts constant tests evaluated (root events).
	TestsRun int
	// TokensTested counts opposite-memory entries tested (join events):
	// the probed bucket's population when Indexed, the full memory
	// otherwise.
	TokensTested int
	// PairsEmitted counts tokens sent downstream.
	PairsEmitted int
	// Indexed reports whether the activation probed a hash bucket
	// rather than scanning the opposite memory.
	Indexed bool
	// OppSize is the opposite memory's total population at activation
	// time; with TokensTested it shows the work an index saved.
	OppSize int
	// SharedBy is the number of productions/CEs sharing the node; the
	// simulator uses it to model the sharing that production-level
	// parallelism loses (§4).
	SharedBy int
}

// TraceFunc receives activation events during Apply.
type TraceFunc func(ev ActivationEvent)

// Stats accumulates match statistics over all Apply calls.
type Stats struct {
	// Changes is the number of WM changes processed.
	Changes int
	// Activations counts node activations by kind.
	Activations [KindTerm + 1]int64
	// ConstTests is the total number of constant tests evaluated.
	ConstTests int64
	// TokenComparisons is the total number of (token, wme) pairs tested
	// at two-input nodes (bucket candidates only, for indexed nodes).
	TokenComparisons int64
	// IndexedProbes counts two-input activations answered from a hash
	// bucket instead of a linear scan.
	IndexedProbes int64
	// ConflictInserts and ConflictRemoves count conflict-set deltas.
	ConflictInserts int64
	// ConflictRemoves counts conflict-set removals.
	ConflictRemoves int64
	// AffectedProductions is the total over changes of the number of
	// productions with at least one alpha memory touched by the change
	// (the paper's "affected productions", ~30 per change).
	AffectedProductions int64
	// TwoInputPerProduction histograms two-input activations per
	// affected production per change (index clamped at 15).
	TwoInputPerProduction [16]int64
	// Anomalies counts removal requests for absent tokens (should be 0).
	Anomalies int64
}

// TotalActivations returns the number of node activations of all kinds.
func (s *Stats) TotalActivations() int64 {
	var t int64
	for _, v := range s.Activations {
		t += v
	}
	return t
}

// AvgAffected returns the mean number of affected productions per change.
func (s *Stats) AvgAffected() float64 {
	if s.Changes == 0 {
		return 0
	}
	return float64(s.AffectedProductions) / float64(s.Changes)
}

// linearProbeMin is the opposite-memory population below which a join
// activation scans linearly even when an index exists: computing the
// join key and probing the map costs more than testing a handful of
// candidates directly. Memories this small are also where most
// activations of well-partitioned programs land, so the cutover
// matters for constant factors while leaving the asymptotics indexed.
const linearProbeMin = 16

// applyCtx threads per-change bookkeeping through the propagation:
// counts holds, per production ordinal, the two-input activations
// credited to the production during the current change (-1 when it is
// not affected), and touched lists the ordinals set this change, so
// closing a change costs the affected productions, not the network.
type applyCtx struct {
	change  int
	dir     ops5.ChangeKind
	counts  []int32
	touched []int32
}

// touch marks the memory's productions affected by the current change.
func (c *applyCtx) touch(am *AlphaMem) {
	for _, ref := range am.ProdRefs {
		if c.counts[ref.ord] < 0 {
			c.counts[ref.ord] = 0
			c.touched = append(c.touched, int32(ref.ord))
		}
	}
}

// credit attributes a two-input activation to the productions sharing
// the node's right memory, for the per-production variance histogram.
func (c *applyCtx) credit(am *AlphaMem) {
	c.touch(am)
	for _, ref := range am.ProdRefs {
		c.counts[ref.ord]++
	}
}

// Apply processes a batch of working-memory changes through the network
// serially, in order. Insert WMEs must already carry their time tags
// (working memory assigns them).
func (n *Network) Apply(changes []ops5.Change) {
	n.started = true
	n.prepare()
	ctx := &n.ctx
	for i, ch := range changes {
		ctx.change, ctx.dir = i, ch.Kind
		root := n.roots[ch.WME.ClassID()]
		tests := 0
		rootSeq := n.nextSeq()
		if root != nil {
			n.visitConst(root, ch.WME, ctx, rootSeq, &tests)
		}
		n.Stats.ConstTests += int64(tests)
		n.Stats.Changes++
		n.Stats.Activations[KindRoot]++
		n.Stats.AffectedProductions += int64(len(ctx.touched))
		for _, ord := range ctx.touched {
			n.Stats.TwoInputPerProduction[min(ctx.counts[ord], 15)]++
			ctx.counts[ord] = -1
		}
		ctx.touched = ctx.touched[:0]
		n.emit(ActivationEvent{
			Seq: rootSeq, Parent: 0, Change: i, Kind: KindRoot, NodeID: 0,
			Dir: ch.Kind, TestsRun: tests,
		})
	}
}

func (n *Network) nextSeq() int64 {
	n.seq++
	return n.seq
}

func (n *Network) emit(ev ActivationEvent) {
	if n.Tracer != nil {
		n.Tracer(ev)
	}
}

// visitConst walks the constant-test chain below node for the WME.
func (n *Network) visitConst(node *ConstNode, w *ops5.WME, ctx *applyCtx, parent int64, tests *int) {
	*tests++
	if !node.evalConst(w) {
		return
	}
	if node.Mem != nil {
		n.alphaActivate(node.Mem, w, ctx, parent)
	}
	for _, c := range node.Children {
		n.visitConst(c, w, ctx, parent, tests)
	}
}

// alphaActivate updates an alpha memory and right-activates successors.
func (n *Network) alphaActivate(am *AlphaMem, w *ops5.WME, ctx *applyCtx, parent int64) {
	seq := n.nextSeq()
	n.Stats.Activations[KindAlpha]++
	ctx.touch(am)
	var wr *wmeRec
	switch ctx.dir {
	case ops5.Insert:
		wr = am.insert(n, w)
		for _, ix := range am.indexes {
			ix.insert(wr, am.recs)
		}
	case ops5.Delete:
		if wr = am.remove(w); wr == nil {
			n.Stats.Anomalies++
			return
		}
		for _, ix := range am.indexes {
			ix.remove(wr)
		}
	}
	n.emit(ActivationEvent{
		Seq: seq, Parent: parent, Change: ctx.change, Kind: KindAlpha,
		NodeID: am.ID, Dir: ctx.dir, SharedBy: len(am.ProdRefs),
	})
	for _, j := range am.Succs {
		n.rightActivate(j, wr, ctx, seq)
	}
	if ctx.dir == ops5.Delete && wr.kids == nil {
		n.wrecs.put(&wmeBatches, wr)
	}
}

// leftRecs returns the left-memory records a right activation of j
// tests: the key's bucket when the left index is built and the memory
// is large enough to probe (indexed), else the whole memory.
func (j *JoinNode) leftRecs(w *ops5.WME) (bucket *tokRec, all []*tokRec, indexed bool) {
	all = j.Left.recs
	if j.leftIdx != nil && j.leftIdx.bkts != nil && len(all) >= linearProbeMin {
		return j.leftIdx.bkts.first(j.rightHash(w)), nil, true
	}
	return nil, all, false
}

// rightRecs returns the alpha records a left activation of j tests:
// the key's bucket when the right index is built and the memory is
// large enough to probe, else the whole memory.
func (j *JoinNode) rightRecs(tok *Token) (items []*wmeRec, indexed bool) {
	items = j.Right.recs
	if j.rightIdx != nil && j.rightIdx.buckets != nil && len(items) >= linearProbeMin {
		return j.rightIdx.probe(j.leftHash(tok), &j.rightScratch), true
	}
	return items, false
}

// rightActivate processes a WME arriving on (or leaving) the right
// input of a two-input node.
func (n *Network) rightActivate(j *JoinNode, wr *wmeRec, ctx *applyCtx, parent int64) {
	seq := n.nextSeq()
	ctx.credit(j.Right)
	w := wr.w
	var tested, emitted int
	var indexed bool
	kind := KindJoinRight
	opp := len(j.Left.recs)
	switch j.Kind {
	case JoinPositive:
		n.Stats.Activations[KindJoinRight]++
		bucket, all, ix := j.leftRecs(w)
		indexed = ix
		if ix {
			n.Stats.IndexedProbes++
		}
		if ctx.dir == ops5.Insert {
			visit := func(r *tokRec) {
				tested++
				if j.evalJoin(&r.tok, w) {
					emitted++
					kid := n.toks.get(&tokBatches)
					kid.tok.extendFrom(&r.tok, w)
					joinKid(kid, r, wr)
					n.betaInsert(j.Out, kid, ctx, seq)
				}
			}
			if indexed {
				for r := bucket; r != nil; r = j.leftIdx.bkts.next(r) {
					visit(r)
				}
			} else {
				for _, r := range all {
					visit(r)
				}
			}
			break
		}
		// Removal re-joins exactly as insertion did; each match's child
		// is reached by pointer. The WME's children at this node are
		// parked on their left parents, and the re-join claims them.
		for c := wr.kids; c != nil; c = c.nextW {
			if c.mem == j.Out {
				c.parent.stash = c
			}
		}
		kids := j.kidScratch[:0]
		claim := func(r *tokRec) {
			tested++
			if j.evalJoin(&r.tok, w) {
				emitted++
				if r.stash == nil {
					n.Stats.Anomalies++
					return
				}
				kids = append(kids, r.stash)
				r.stash = nil
			}
		}
		if indexed {
			for r := bucket; r != nil; r = j.leftIdx.bkts.next(r) {
				claim(r)
			}
		} else {
			for _, r := range all {
				claim(r)
			}
		}
		n.removeKids(j, kids, ctx, seq)
		for c := wr.kids; c != nil; c = c.nextW {
			if c.mem == j.Out {
				c.parent.stash = nil // unclaimed: the memories disagree
			}
		}
	case JoinNegative:
		n.Stats.Activations[KindNegRight]++
		kind = KindNegRight
		indexed = j.negIdx != nil
		adjust := func(nr *negRec) {
			tested++
			if !j.evalJoin(&nr.left.tok, w) {
				return
			}
			switch ctx.dir {
			case ops5.Insert:
				nr.count++
				if nr.count == 1 {
					emitted++
					out := nr.out
					nr.out = nil
					n.betaRemove(out, ctx, seq)
				}
			case ops5.Delete:
				nr.count--
				if nr.count == 0 {
					emitted++
					nr.out = n.passThrough(j, nr.left, ctx, seq)
				}
			}
		}
		if indexed {
			n.Stats.IndexedProbes++
			// Propagation from j.Out flows strictly downstream, so the
			// bucket is never relinked while it is walked.
			for nr := j.negIdx.first(j.rightHash(w)); nr != nil; nr = nr.link.next {
				adjust(nr)
			}
			opp = j.negCount
		} else {
			for _, nr := range j.negList {
				adjust(nr)
			}
			opp = len(j.negList)
		}
	}
	n.Stats.TokenComparisons += int64(tested)
	j.Prof.add(tested, emitted, indexed)
	n.emit(ActivationEvent{
		Seq: seq, Parent: parent, Change: ctx.change, Kind: kind,
		NodeID: j.ID, Dir: ctx.dir, TokensTested: tested, PairsEmitted: emitted,
		SharedBy: j.SharedBy, Indexed: indexed, OppSize: opp,
	})
}

// removeKids removes the children a removal at j claimed, in claim
// order, then hands the scratch buffer back to j.
func (n *Network) removeKids(j *JoinNode, kids []*tokRec, ctx *applyCtx, seq int64) {
	for i, kid := range kids {
		kids[i] = nil
		n.betaRemove(kid, ctx, seq)
	}
	j.kidScratch = kids[:0]
}

// passThrough stores a copy of left's token in not-node j's output
// memory and propagates it, returning the stored record.
func (n *Network) passThrough(j *JoinNode, left *tokRec, ctx *applyCtx, seq int64) *tokRec {
	out := n.toks.get(&tokBatches)
	out.tok.extendFrom(&left.tok, nil)
	n.betaInsert(j.Out, out, ctx, seq)
	return out
}

// leftActivate processes a token arriving on (or leaving) the left
// input of a two-input node. dir gives whether the token is being added
// or removed.
func (n *Network) leftActivate(j *JoinNode, r *tokRec, dir ops5.ChangeKind, ctx *applyCtx, parent int64) {
	seq := n.nextSeq()
	ctx.credit(j.Right)
	tok := &r.tok
	var tested, emitted int
	var indexed bool
	kind := KindJoinLeft
	switch j.Kind {
	case JoinPositive:
		n.Stats.Activations[KindJoinLeft]++
		items, ix := j.rightRecs(tok)
		indexed = ix
		if ix {
			n.Stats.IndexedProbes++
		}
		if dir == ops5.Insert {
			for _, wr := range items {
				tested++
				if j.evalJoin(tok, wr.w) {
					emitted++
					kid := n.toks.get(&tokBatches)
					kid.tok.extendFrom(tok, wr.w)
					joinKid(kid, r, wr)
					n.betaInsert(j.Out, kid, ctx, seq)
				}
			}
			break
		}
		// Removal mirrors the right side: the token's children at this
		// node are parked on their alpha records, and the re-join over
		// the same items claims them.
		for c := r.kids; c != nil; c = c.nextKid {
			if c.mem == j.Out {
				c.wrec.stash = c
			}
		}
		kids := j.kidScratch[:0]
		for _, wr := range items {
			tested++
			if j.evalJoin(tok, wr.w) {
				emitted++
				if wr.stash == nil {
					n.Stats.Anomalies++
					continue
				}
				kids = append(kids, wr.stash)
				wr.stash = nil
			}
		}
		n.removeKids(j, kids, ctx, seq)
		for c := r.kids; c != nil; c = c.nextKid {
			if c.mem == j.Out {
				c.wrec.stash = nil // unclaimed: the memories disagree
			}
		}
	case JoinNegative:
		n.Stats.Activations[KindNegLeft]++
		kind = KindNegLeft
		indexed = j.negIdx != nil
		switch dir {
		case ops5.Insert:
			count := 0
			items, ix := j.rightRecs(tok)
			if ix {
				n.Stats.IndexedProbes++
			}
			for _, wr := range items {
				tested++
				if j.evalJoin(tok, wr.w) {
					count++
				}
			}
			nr := n.negs.get(&negBatches)
			*nr = negRec{left: r, join: j, count: int32(count), next: r.negs}
			r.negs = nr
			if indexed {
				j.negIdx.add(j.leftHash(tok), nr)
				j.negCount++
			} else {
				nr.slot = int32(len(j.negList))
				j.negList = append(j.negList, nr)
			}
			if count == 0 {
				emitted++
				nr.out = n.passThrough(j, r, ctx, seq)
			}
		case ops5.Delete:
			nr := r.takeNeg(j)
			switch {
			case nr == nil:
				if !indexed {
					tested += len(j.negList)
				}
				n.Stats.Anomalies++
			case indexed:
				tested++
				j.negIdx.remove(nr)
				j.negCount--
			default:
				// The list keeps arrival order, which right activations
				// visit; tested counts the records a scan would pass.
				tested += int(nr.slot) + 1
				copy(j.negList[nr.slot:], j.negList[nr.slot+1:])
				j.negList[len(j.negList)-1] = nil
				j.negList = j.negList[:len(j.negList)-1]
				for _, x := range j.negList[nr.slot:] {
					x.slot--
				}
			}
			if nr != nil {
				if nr.count == 0 {
					emitted++
					n.betaRemove(nr.out, ctx, seq)
				}
				n.negs.put(&negBatches, nr)
			}
		}
	}
	n.Stats.TokenComparisons += int64(tested)
	j.Prof.add(tested, emitted, indexed)
	n.emit(ActivationEvent{
		Seq: seq, Parent: parent, Change: ctx.change, Kind: kind,
		NodeID: j.ID, Dir: dir, TokensTested: tested, PairsEmitted: emitted,
		SharedBy: j.SharedBy, Indexed: indexed, OppSize: len(j.Right.recs),
	})
}

// takeNeg unlinks and returns the record's negRec at not-node j, or nil.
func (r *tokRec) takeNeg(j *JoinNode) *negRec {
	for p := &r.negs; *p != nil; p = &(*p).next {
		if nr := *p; nr.join == j {
			*p = nr.next
			nr.next = nil
			return nr
		}
	}
	return nil
}

// betaInsert stores a token record and propagates it to joins and
// terminals.
func (n *Network) betaInsert(bm *BetaMem, r *tokRec, ctx *applyCtx, parent int64) {
	bm.store(r)
	for _, j := range bm.Joins {
		n.leftActivate(j, r, ops5.Insert, ctx, parent)
	}
	for i, t := range bm.Terminals {
		n.terminalActivate(t, i, r, ops5.Insert, ctx, parent)
	}
}

// betaRemove unlinks a stored token record — from its memory's slot and
// buckets and from its parents' kids chains, all by pointer — and
// propagates the removal.
func (n *Network) betaRemove(r *tokRec, ctx *applyCtx, parent int64) {
	bm := r.mem
	bm.unstore(r)
	unjoinKid(r)
	for _, j := range bm.Joins {
		n.leftActivate(j, r, ops5.Delete, ctx, parent)
	}
	for i, t := range bm.Terminals {
		n.terminalActivate(t, i, r, ops5.Delete, ctx, parent)
	}
	if r.kids == nil && r.negs == nil {
		n.toks.put(&tokBatches, r)
	}
}

// terminalActivate emits a conflict-set delta. The instantiation made
// for the memory's first terminal stays on the record, so its removal
// hands the conflict set the very instantiation it holds; other
// terminals of a shared memory (productions with identical left-hand
// sides) rebuild an equal one.
func (n *Network) terminalActivate(t *Terminal, ti int, r *tokRec, dir ops5.ChangeKind, ctx *applyCtx, parent int64) {
	seq := n.nextSeq()
	n.Stats.Activations[KindTerm]++
	if dir == ops5.Insert {
		inst := t.Instantiate(&r.tok)
		if ti == 0 {
			r.inst = inst
		}
		n.Stats.ConflictInserts++
		if n.OnInsert != nil {
			n.OnInsert(inst)
		}
	} else {
		inst := r.inst
		if ti != 0 || inst == nil {
			inst = t.Instantiate(&r.tok)
		} else {
			r.inst = nil
		}
		n.Stats.ConflictRemoves++
		if n.OnRemove != nil {
			n.OnRemove(inst)
		}
	}
	n.emit(ActivationEvent{
		Seq: seq, Parent: parent, Change: ctx.change, Kind: KindTerm,
		NodeID: t.ID, Dir: dir, PairsEmitted: 1,
	})
}
