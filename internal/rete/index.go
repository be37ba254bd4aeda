package rete

import (
	"sort"

	"repro/internal/ops5"
	"repro/internal/sym"
)

// This file implements equality-keyed hash indexes over alpha and beta
// memories. At prepare time (the first Apply) the equality subset of
// each two-input node's tests becomes a join key; the node's opposite
// memories maintain chained hash buckets alongside their slices, and
// activations probe the matching bucket instead of scanning the whole
// memory. Both the serial matcher and the parallel matcher's
// lock-striped buckets key on the allocation-free uint64 hash
// (JoinHashFuncs over ops5.HashValue); JoinKeyFuncs keeps the readable
// string encoding for diagnostics. Both encodings are Equal-consistent
// but not injective, so every candidate drawn from a bucket is still
// re-verified with the node's full test chain: a key collision can only
// widen a bucket, never fabricate or lose a match.
//
// Alpha buckets are singly-linked chains through one append-only entry
// array per index (int32 links, free-listed on removal), not per-key
// slices, so index upkeep does not allocate. Beta and not-node buckets
// are doubly-linked through the stored records themselves (chains): a
// record carries its links and bucket slot, so removing it unlinks by
// pointer, with no key to recompute and no chain to search. Walking a
// bucket while propagating is safe because the network is a DAG:
// propagation only ever mutates memories downstream of the one being
// walked.
//
// Nodes with no equality tests (pure predicate joins) keep the linear
// scan; indexed not-nodes keep their count semantics but store the
// left records keyed by join key.

// SplitJoinTests partitions a two-input node's tests into the equality
// tests forming the hash join key (in canonical order, so nodes with
// the same key spec can share an index) and the residual predicate
// tests. Used here at prepare time and by the parallel matcher.
func SplitJoinTests(tests []JoinTest) (eq, rest []JoinTest) {
	for _, t := range tests {
		if t.Pred == ops5.PredEq {
			eq = append(eq, t)
		} else {
			rest = append(rest, t)
		}
	}
	if len(eq) > 1 {
		// Precompute keys: key() builds a string, and the comparator
		// runs O(n log n) times.
		keys := make(map[*JoinTest]string, len(eq))
		for i := range eq {
			keys[&eq[i]] = eq[i].key()
		}
		sort.Slice(eq, func(i, j int) bool { return keys[&eq[i]] < keys[&eq[j]] })
	}
	return eq, rest
}

// JoinKeyFuncs returns the two sides' key functions for an equality
// test list (as returned by SplitJoinTests): leftKey over a token's
// bound attributes, rightKey over a WME's. A (token, WME) pair that
// passes every equality test always produces leftKey == rightKey.
func JoinKeyFuncs(eq []JoinTest) (leftKey func(*Token) string, rightKey func(*ops5.WME) string) {
	tests := append([]JoinTest(nil), eq...)
	leftKey = func(tok *Token) string {
		b := make([]byte, 0, 16*len(tests))
		for _, t := range tests {
			b = ops5.AppendValueKey(b, tok.WMEs[t.LeftIdx].GetID(t.LeftID))
		}
		return string(b)
	}
	rightKey = func(w *ops5.WME) string {
		b := make([]byte, 0, 16*len(tests))
		for _, t := range tests {
			b = ops5.AppendValueKey(b, w.GetID(t.RightID))
		}
		return string(b)
	}
	return leftKey, rightKey
}

// JoinHashFuncs is the allocation-free counterpart of JoinKeyFuncs: the
// returned functions fold the key columns into a uint64 with
// ops5.HashValue. A (token, WME) pair passing every equality test
// always produces leftHash == rightHash. The hash is Equal-consistent
// but not injective, so callers (this package's indexes and the parallel
// matcher's lock-striped buckets) re-verify bucket candidates with the
// node's full test chain.
func JoinHashFuncs(eq []JoinTest) (leftHash func(*Token) uint64, rightHash func(*ops5.WME) uint64) {
	tests := append([]JoinTest(nil), eq...)
	leftHash = func(tok *Token) uint64 {
		h := ops5.HashSeed
		for _, t := range tests {
			h = ops5.HashValue(h, tok.WMEs[t.LeftIdx].GetID(t.LeftID))
		}
		return h
	}
	rightHash = func(w *ops5.WME) uint64 {
		h := ops5.HashSeed
		for _, t := range tests {
			h = ops5.HashValue(h, w.GetID(t.RightID))
		}
		return h
	}
	return leftHash, rightHash
}

// wmeEntry is one chain link of an alphaIndex: the WME's record and the
// entry index of the next link (-1 ends the chain; free-listed entries
// reuse next as the free link).
type wmeEntry struct {
	r    *wmeRec
	next int32
}

// alphaIndex is a hash index over an alpha memory's WMEs, keyed by the
// values of attrs (the RightID columns of one equality key spec).
// buckets stays nil — and insert/remove are no-ops — until the memory
// first reaches linearProbeMin items, the size below which activations
// scan linearly anyway; tiny memories then pay no key or map upkeep.
type alphaIndex struct {
	attrs   []sym.ID
	buckets map[uint64]int32
	entries []wmeEntry
	free    int32
}

func (ix *alphaIndex) key(w *ops5.WME) uint64 {
	h := ops5.HashSeed
	for _, a := range ix.attrs {
		h = ops5.HashValue(h, w.GetID(a))
	}
	return h
}

// add links r into the bucket for key k, reusing a free entry if any.
func (ix *alphaIndex) add(k uint64, r *wmeRec) {
	head, ok := ix.buckets[k]
	if !ok {
		head = -1
	}
	var i int32
	if ix.free >= 0 {
		i = ix.free
		ix.free = ix.entries[i].next
		ix.entries[i] = wmeEntry{r: r, next: head}
	} else {
		i = int32(len(ix.entries))
		ix.entries = append(ix.entries, wmeEntry{r: r, next: head})
	}
	ix.buckets[k] = i
}

// build creates the bucket map from the memory's records.
func (ix *alphaIndex) build(recs []*wmeRec) {
	ix.buckets = make(map[uint64]int32, len(recs))
	ix.entries = make([]wmeEntry, 0, 2*len(recs))
	ix.free = -1
	for _, x := range recs {
		ix.add(ix.key(x.w), x)
	}
}

// insert adds r to its bucket. recs is the owning memory's current
// population (already including r); the bucket map is built from it in
// full when the memory first reaches linearProbeMin.
func (ix *alphaIndex) insert(r *wmeRec, recs []*wmeRec) {
	if ix.buckets == nil {
		if len(recs) >= linearProbeMin {
			ix.build(recs)
		}
		return
	}
	ix.add(ix.key(r.w), r)
}

func (ix *alphaIndex) remove(r *wmeRec) {
	if ix.buckets == nil {
		return
	}
	k := ix.key(r.w)
	head, ok := ix.buckets[k]
	if !ok {
		return
	}
	prev := int32(-1)
	for i := head; i >= 0; i = ix.entries[i].next {
		if ix.entries[i].r == r {
			next := ix.entries[i].next
			if prev < 0 {
				if next < 0 {
					delete(ix.buckets, k)
				} else {
					ix.buckets[k] = next
				}
			} else {
				ix.entries[prev].next = next
			}
			ix.entries[i] = wmeEntry{next: ix.free}
			ix.free = i
			return
		}
		prev = i
	}
}

// probe collects the bucket for key k into scratch's storage (grown as
// needed and retained by the caller across probes, so steady-state
// probing does not allocate) and returns the filled slice.
func (ix *alphaIndex) probe(k uint64, scratch *[]*wmeRec) []*wmeRec {
	out := (*scratch)[:0]
	head, ok := ix.buckets[k]
	if !ok {
		*scratch = out
		return out
	}
	for i := head; i >= 0; i = ix.entries[i].next {
		out = append(out, ix.entries[i].r)
	}
	*scratch = out
	return out
}

// bucketStats reports the live bucket count and largest chain length.
func (ix *alphaIndex) bucketStats() (buckets, maxBucket int) {
	for _, head := range ix.buckets {
		buckets++
		n := 0
		for i := head; i >= 0; i = ix.entries[i].next {
			n++
		}
		if n > maxBucket {
			maxBucket = n
		}
	}
	return buckets, maxBucket
}

// link is a record's place in one hash bucket's doubly-linked chain.
// With the bucket's slot in chains.heads, which the record keeps beside
// it, the record can unlink itself by pointer: no key to recompute and
// no chain to search.
type link[R any] struct {
	prev, next *R
}

// linked is a record type that carries bucket links; linkAt(i) is its
// link in the i-th index over its memory and its bucket's slot there.
type linked[R any] interface {
	*R
	linkAt(i int) (l *link[R], bucket *int32)
}

// chainHead is one bucket: its key and first record.
type chainHead[R any] struct {
	key   uint64
	first *R
}

// chains buckets records by join-key hash. slots maps a key to its
// bucket's slot in heads; emptied slots are free-listed, so steady-state
// upkeep allocates nothing. New records go to the front of their bucket.
// li selects which of a record's links this index owns.
type chains[R any, P linked[R]] struct {
	li    int
	slots map[uint64]int32
	heads []chainHead[R]
	free  []int32
}

func newChains[R any, P linked[R]](li int) *chains[R, P] {
	return &chains[R, P]{li: li, slots: make(map[uint64]int32)}
}

// first returns the front record of key k's bucket, or nil.
func (c *chains[R, P]) first(k uint64) P {
	if b, ok := c.slots[k]; ok {
		return c.heads[b].first
	}
	return nil
}

// next returns the record after r in its bucket, or nil.
func (c *chains[R, P]) next(r P) P {
	l, _ := r.linkAt(c.li)
	return l.next
}

// add links r at the front of key k's bucket.
func (c *chains[R, P]) add(k uint64, r P) {
	b, ok := c.slots[k]
	if !ok {
		if n := len(c.free); n > 0 {
			b = c.free[n-1]
			c.free = c.free[:n-1]
		} else {
			b = int32(len(c.heads))
			c.heads = append(c.heads, chainHead[R]{})
		}
		c.heads[b] = chainHead[R]{key: k}
		c.slots[k] = b
	}
	h := &c.heads[b]
	l, bucket := r.linkAt(c.li)
	*l, *bucket = link[R]{next: h.first}, b
	if h.first != nil {
		fl, _ := P(h.first).linkAt(c.li)
		fl.prev = r
	}
	h.first = r
}

// remove unlinks r from its bucket, dropping the bucket when it empties.
func (c *chains[R, P]) remove(r P) {
	l, bucket := r.linkAt(c.li)
	if l.prev != nil {
		pl, _ := P(l.prev).linkAt(c.li)
		pl.next = l.next
	} else {
		h := &c.heads[*bucket]
		h.first = l.next
		if h.first == nil {
			delete(c.slots, h.key)
			c.free = append(c.free, *bucket)
		}
	}
	if l.next != nil {
		nl, _ := P(l.next).linkAt(c.li)
		nl.prev = l.prev
	}
	*l = link[R]{}
}

// stats reports the live bucket count and largest bucket population.
func (c *chains[R, P]) stats() (buckets, maxBucket int) {
	for _, b := range c.slots {
		buckets++
		n := 0
		for r := P(c.heads[b].first); r != nil; r = c.next(r) {
			n++
		}
		if n > maxBucket {
			maxBucket = n
		}
	}
	return buckets, maxBucket
}

// betaCol is one column of a beta index key: token position and attr.
type betaCol struct {
	idx  int
	attr sym.ID
}

// betaIndex is a hash index over a beta memory's tokens, keyed by the
// values of cols (the LeftIdx/LeftID columns of one equality spec).
// As with alphaIndex, the buckets stay unbuilt (nil) until the memory
// first reaches linearProbeMin tokens. li is the index's position in
// its memory's indexes, which selects the records' link.
type betaIndex struct {
	cols []betaCol
	li   int
	bkts *chains[tokRec, *tokRec]
}

func (ix *betaIndex) key(tok *Token) uint64 {
	h := ops5.HashSeed
	for _, c := range ix.cols {
		h = ops5.HashValue(h, tok.WMEs[c.idx].GetID(c.attr))
	}
	return h
}

// build creates the buckets from the memory's records, each linked at
// the front in turn.
func (ix *betaIndex) build(recs []*tokRec) {
	ix.bkts = newChains[tokRec](ix.li)
	for _, r := range recs {
		ix.bkts.add(ix.key(&r.tok), r)
	}
}

// insert links r into its bucket. recs is the owning memory's current
// population (already including r); the buckets are built from it in
// full when the memory first reaches linearProbeMin.
func (ix *betaIndex) insert(r *tokRec, recs []*tokRec) {
	if ix.bkts == nil {
		if len(recs) >= linearProbeMin {
			ix.build(recs)
		}
		return
	}
	ix.bkts.add(ix.key(&r.tok), r)
}

// remove unlinks r from its bucket.
func (ix *betaIndex) remove(r *tokRec) {
	if ix.bkts != nil {
		ix.bkts.remove(r)
	}
}

// indexFor returns this alpha memory's index for the given equality
// spec, creating (and back-filling) it on first request. Joins with
// identical right-side key columns share one index.
func (am *AlphaMem) indexFor(eq []JoinTest) *alphaIndex {
	attrs := make([]sym.ID, len(eq))
	for i, t := range eq {
		attrs[i] = t.RightID
	}
	for _, ix := range am.indexes {
		if idsEqual(ix.attrs, attrs) {
			return ix
		}
	}
	ix := &alphaIndex{attrs: attrs, free: -1}
	if len(am.recs) >= linearProbeMin {
		ix.build(am.recs)
	}
	am.indexes = append(am.indexes, ix)
	return ix
}

// indexFor returns this beta memory's index for the given equality
// spec, creating (and back-filling) it on first request.
func (bm *BetaMem) indexFor(eq []JoinTest) *betaIndex {
	cols := make([]betaCol, len(eq))
	for i, t := range eq {
		cols[i] = betaCol{idx: t.LeftIdx, attr: t.LeftID}
	}
	for _, ix := range bm.indexes {
		if colsEqual(ix.cols, cols) {
			return ix
		}
	}
	ix := &betaIndex{cols: cols, li: len(bm.indexes)}
	if len(bm.recs) >= linearProbeMin {
		ix.build(bm.recs)
	}
	bm.indexes = append(bm.indexes, ix)
	return ix
}

func idsEqual(a, b []sym.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func colsEqual(a, b []betaCol) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// prepare builds the hash indexes for every two-input node with at
// least one equality test. It runs once, at the first Apply — safe
// because AddProduction rejects further productions after matching
// starts, so the set of key specs is final.
func (n *Network) prepare() {
	if n.prepared {
		return
	}
	n.prepared = true
	for _, j := range n.joins {
		eq, _ := SplitJoinTests(j.Tests)
		if len(eq) == 0 {
			continue
		}
		j.leftHash, j.rightHash = JoinHashFuncs(eq)
		j.rightIdx = j.Right.indexFor(eq)
		j.leftIdx = j.Left.indexFor(eq)
		if j.Kind == JoinNegative {
			j.negIdx = newChains[negRec](0)
		}
	}
	n.ctx.counts = make([]int32, len(n.prods)+1)
	for i := range n.ctx.counts {
		n.ctx.counts[i] = -1
	}
}

// IndexInfo summarises the hash-index state of a network.
type IndexInfo struct {
	// IndexedJoins and FallbackJoins partition the two-input nodes by
	// whether activations probe a hash bucket or scan linearly.
	IndexedJoins  int
	FallbackJoins int
	// AlphaIndexes and BetaIndexes count distinct (possibly shared)
	// indexes maintained over the memories.
	AlphaIndexes int
	BetaIndexes  int
	// Buckets is the total number of live hash buckets; MaxBucket the
	// largest bucket's population (the residual scan bound).
	Buckets   int
	MaxBucket int
}

// IndexInfo reports the current index topology and occupancy. It
// prepares the network if matching has not started yet.
func (n *Network) IndexInfo() IndexInfo {
	n.prepare()
	var info IndexInfo
	for _, j := range n.joins {
		if j.leftHash != nil {
			info.IndexedJoins++
		} else {
			info.FallbackJoins++
		}
		if j.negIdx != nil {
			b, mx := j.negIdx.stats()
			info.Buckets += b
			info.MaxBucket = max(info.MaxBucket, mx)
		}
	}
	for _, am := range n.alphas {
		info.AlphaIndexes += len(am.indexes)
		for _, ix := range am.indexes {
			b, mx := ix.bucketStats()
			info.Buckets += b
			if mx > info.MaxBucket {
				info.MaxBucket = mx
			}
		}
	}
	for _, bm := range n.betas {
		info.BetaIndexes += len(bm.indexes)
		for _, ix := range bm.indexes {
			if ix.bkts != nil {
				b, mx := ix.bkts.stats()
				info.Buckets += b
				info.MaxBucket = max(info.MaxBucket, mx)
			}
		}
	}
	return info
}
