// Package conflict implements the OPS5 conflict set and the LEX and MEA
// conflict-resolution strategies described in Brownston et al. and used
// by the paper's recognize-act cycle (§2.1).
package conflict

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ops5"
)

// Strategy selects which instantiation fires next.
type Strategy uint8

// The OPS5 conflict-resolution strategies.
const (
	// LEX orders by refraction, recency of all time tags, then
	// specificity.
	LEX Strategy = iota
	// MEA is LEX with a dominant first comparison on the time tag of the
	// WME matching the first condition element (the "means-ends" goal
	// element).
	MEA
)

// String names the strategy.
func (s Strategy) String() string {
	if s == MEA {
		return "MEA"
	}
	return "LEX"
}

// ParseStrategy converts a name (case-insensitive "lex" or "mea") to a
// strategy.
func ParseStrategy(name string) (Strategy, error) {
	switch strings.ToLower(name) {
	case "lex":
		return LEX, nil
	case "mea":
		return MEA, nil
	default:
		return LEX, fmt.Errorf("conflict: unknown strategy %q (lex|mea)", name)
	}
}

// Set is the conflict set: the instantiations of all currently satisfied
// productions. It supports the deltas emitted by matchers and the
// selection rules of LEX and MEA, including refraction (an instantiation
// that has fired cannot fire again while it remains in the set).
//
// Entries live by value in one dense slice, which Select scans. An
// instantiation's identity is its production and time tags; slots finds
// an entry by a hash of that identity without building the string key,
// and every candidate is checked against the production and the tags.
// Instantiation.Key is computed only where a key is persisted or shown:
// FiredKeys, MarkFired and tie-breaks between otherwise equal entries.
type Set struct {
	strategy Strategy
	entries  []entry
	// slots is an open-addressing table of entry indexes (-1 is empty),
	// probed linearly from an entry's identity hash. Its size is a power
	// of two above twice the entry count, and removal shifts later
	// probes back rather than leaving tombstones, so probes stay short
	// however many instantiations have come and gone.
	slots []int32
	// lastProd caches the name hash and specificity of the production
	// seen last: delta streams arrive in runs of one production.
	lastProd *ops5.Production
	lastName uint64
	lastSpec int
}

// entry caches an instantiation's ordering features at insert time —
// instantiations are immutable, so recency tags, the MEA goal tag and
// specificity never need recomputing during selection.
type entry struct {
	inst  *ops5.Instantiation
	hash  uint64
	fired bool
	ntags int32
	mea   int
	spec  int
	// tags holds the time tags sorted descending; more holds them
	// instead when there are more than fit inline.
	tags [8]int
	more []int
}

// recency returns the entry's time tags sorted descending.
func (e *entry) recency() []int {
	if e.more != nil {
		return e.more
	}
	return e.tags[:e.ntags]
}

// NewSet returns an empty conflict set using the given strategy.
func NewSet(strategy Strategy) *Set {
	s := &Set{strategy: strategy}
	s.resize(16)
	return s
}

// Strategy returns the set's conflict-resolution strategy.
func (s *Set) Strategy() Strategy { return s.strategy }

// Len returns the number of instantiations currently in the set.
func (s *Set) Len() int { return len(s.entries) }

// The identity hash is FNV-1a over the production name followed by one
// word per condition element: the time tag, or noTag for a negated CE.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	noTag     = 1<<64 - 1
)

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func hashTag(h, tag uint64) uint64 { return (h ^ tag) * fnvPrime }

// production returns p's name hash and specificity, cached for the
// production seen last.
func (s *Set) production(p *ops5.Production) (nameHash uint64, spec int) {
	if p != s.lastProd {
		s.lastProd, s.lastName, s.lastSpec = p, hashString(fnvOffset, p.Name), specificity(p)
	}
	return s.lastName, s.lastSpec
}

// identity returns the hash of in's identity.
func (s *Set) identity(in *ops5.Instantiation) uint64 {
	h, _ := s.production(in.Production)
	for _, w := range in.WMEs {
		if w == nil {
			h = hashTag(h, noTag)
		} else {
			h = hashTag(h, uint64(w.TimeTag))
		}
	}
	return h
}

// same reports whether two instantiations have the same identity: the
// same production and the same time tag per condition element.
func same(a, b *ops5.Instantiation) bool {
	if a == b {
		return true
	}
	if a.Production != b.Production && a.Production.Name != b.Production.Name {
		return false
	}
	if len(a.WMEs) != len(b.WMEs) {
		return false
	}
	for i, w := range a.WMEs {
		v := b.WMEs[i]
		if (w == nil) != (v == nil) || (w != nil && w.TimeTag != v.TimeTag) {
			return false
		}
	}
	return true
}

// home returns the table position where probing for hash h starts.
func (s *Set) home(h uint64) int { return int((h ^ h>>32) & uint64(len(s.slots)-1)) }

// find returns the index of the entry with in's identity and its table
// position, or -1 and the empty position that ended the probe.
func (s *Set) find(h uint64, in *ops5.Instantiation) (int32, int) {
	mask := len(s.slots) - 1
	for p := s.home(h); ; p = (p + 1) & mask {
		i := s.slots[p]
		if i < 0 {
			return -1, p
		}
		if e := &s.entries[i]; e.hash == h && same(e.inst, in) {
			return i, p
		}
	}
}

// resize rebuilds the table with n positions.
func (s *Set) resize(n int) {
	s.slots = make([]int32, n)
	for p := range s.slots {
		s.slots[p] = -1
	}
	for i := range s.entries {
		p := s.home(s.entries[i].hash)
		for s.slots[p] >= 0 {
			p = (p + 1) & (n - 1)
		}
		s.slots[p] = int32(i)
	}
}

// Insert adds an instantiation. Re-inserting an identical instantiation
// (same production, same time tags) is a no-op that preserves its fired
// flag, so matchers may be idempotent.
func (s *Set) Insert(in *ops5.Instantiation) {
	h := s.identity(in)
	i, p := s.find(h, in)
	if i >= 0 {
		return
	}
	if 2*(len(s.entries)+1) > len(s.slots) {
		s.resize(2 * len(s.slots))
		_, p = s.find(h, in)
	}
	_, spec := s.production(in.Production)
	s.slots[p] = int32(len(s.entries))
	s.entries = append(s.entries, entry{inst: in, hash: h, mea: meaTag(in), spec: spec})
	e := &s.entries[len(s.entries)-1]
	tags := sortedTagsDesc(in, e.tags[:0])
	if len(tags) > len(e.tags) {
		e.more = tags
	}
	e.ntags = int32(len(tags))
}

// Remove deletes an instantiation by identity; in may be a fresh
// instantiation equal to the one inserted. Removing an absent
// instantiation is a no-op.
func (s *Set) Remove(in *ops5.Instantiation) {
	i, p := s.find(s.identity(in), in)
	if i < 0 {
		return
	}
	s.unslot(p)
	last := int32(len(s.entries) - 1)
	if i != last {
		// The last entry moves into the hole; repoint its position.
		mask := len(s.slots) - 1
		q := s.home(s.entries[last].hash)
		for s.slots[q] != last {
			q = (q + 1) & mask
		}
		s.slots[q] = i
		s.entries[i] = s.entries[last]
	}
	s.entries[last] = entry{}
	s.entries = s.entries[:last]
}

// unslot empties table position p, moving back each later entry of the
// probe run whose home position lies at or before the hole, so every
// remaining entry stays reachable from its home.
func (s *Set) unslot(p int) {
	mask := len(s.slots) - 1
	for q := (p + 1) & mask; ; q = (q + 1) & mask {
		j := s.slots[q]
		if j < 0 {
			break
		}
		k := s.home(s.entries[j].hash)
		if (q > p && (k <= p || k > q)) || (q < p && k <= p && k > q) {
			s.slots[p] = j
			p = q
		}
	}
	s.slots[p] = -1
}

// MarkFired sets the refraction flag on the entry with the given key
// (as produced by Instantiation.Key). Marking an absent key is a no-op.
// Crash recovery (internal/durable) replays selection decisions through
// this, so a recovered set refuses to re-fire exactly the
// instantiations the original run already fired.
//
// A key is the production name followed by "|tag" or "|-" per
// condition element. The name may itself contain '|', so each split
// point from the right is tried until an entry's key matches.
func (s *Set) MarkFired(key string) {
	var buf [16]uint64
	words := buf[:0] // condition-element words, last first
	end := len(key)
	for {
		if i := s.lookupKey(key, key[:end], words); i >= 0 {
			s.entries[i].fired = true
			return
		}
		bar := strings.LastIndexByte(key[:end], '|')
		if bar < 0 {
			return
		}
		part := key[bar+1 : end]
		if part == "-" {
			words = append(words, noTag)
		} else if tag, err := strconv.Atoi(part); err == nil {
			words = append(words, uint64(tag))
		} else {
			return
		}
		end = bar
	}
}

// lookupKey returns the slot of the entry whose key is key, given a
// split of it into a production name and condition-element words (in
// reverse order), or -1.
func (s *Set) lookupKey(key, name string, words []uint64) int32 {
	h := hashString(fnvOffset, name)
	for k := len(words) - 1; k >= 0; k-- {
		h = hashTag(h, words[k])
	}
	mask := len(s.slots) - 1
	for p := s.home(h); s.slots[p] >= 0; p = (p + 1) & mask {
		if e := &s.entries[s.slots[p]]; e.hash == h && e.inst.Key() == key {
			return s.slots[p]
		}
	}
	return -1
}

// FiredKeys returns the keys of the instantiations still in the set
// whose refraction flag is set, sorted for determinism. Snapshots
// persist these alongside working memory.
func (s *Set) FiredKeys() []string {
	var keys []string
	for i := range s.entries {
		if s.entries[i].fired {
			keys = append(keys, s.entries[i].inst.Key())
		}
	}
	sort.Strings(keys)
	return keys
}

// Contains reports whether an identical instantiation is in the set.
func (s *Set) Contains(in *ops5.Instantiation) bool {
	i, _ := s.find(s.identity(in), in)
	return i >= 0
}

// Instantiations returns the current instantiations in a deterministic
// order (the LEX order, best first).
func (s *Set) Instantiations() []*ops5.Instantiation {
	order := make([]int, len(s.entries))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return s.better(&s.entries[order[a]], &s.entries[order[b]])
	})
	out := make([]*ops5.Instantiation, len(order))
	for i, k := range order {
		out[i] = s.entries[k].inst
	}
	return out
}

// Select picks the instantiation to fire under the set's strategy, or
// nil if every instantiation has already fired (or the set is empty) —
// the halting condition of the recognize-act cycle. The chosen
// instantiation is marked fired (refraction). Selection is a linear
// scan of the entries for the best unfired one; better is a total order
// (the final tie-break is the unique key), so entry order cannot change
// the outcome.
func (s *Set) Select() *ops5.Instantiation {
	var best *entry
	for i := range s.entries {
		e := &s.entries[i]
		if e.fired {
			continue
		}
		if best == nil || s.better(e, best) {
			best = e
		}
	}
	if best == nil {
		return nil
	}
	best.fired = true
	return best.inst
}

// better reports whether a should fire before b, comparing the
// features cached at insert time.
func (s *Set) better(a, b *entry) bool {
	if s.strategy == MEA {
		if a.mea != b.mea {
			return a.mea > b.mea
		}
	}
	// Recency: compare sorted-descending time tags lexicographically.
	at, bt := a.recency(), b.recency()
	for i := 0; i < len(at) && i < len(bt); i++ {
		if at[i] != bt[i] {
			return at[i] > bt[i]
		}
	}
	if len(at) != len(bt) {
		return len(at) > len(bt)
	}
	// Specificity: number of tests in the LHS.
	if a.spec != b.spec {
		return a.spec > b.spec
	}
	// Final deterministic tie-breaks: production order, then key.
	ap, bp := a.inst.Production, b.inst.Production
	if ap.Order != bp.Order {
		return ap.Order < bp.Order
	}
	return a.inst.Key() < b.inst.Key()
}

// meaTag returns the time tag of the WME matching the first positive CE.
func meaTag(in *ops5.Instantiation) int {
	for _, w := range in.WMEs {
		if w != nil {
			return w.TimeTag
		}
	}
	return 0
}

// sortedTagsDesc returns the instantiation's time tags sorted
// descending, appended to buf (the entry's inline storage, so typical
// LHS sizes allocate nothing). Tag lists are a handful of entries, so a
// direct insertion sort beats sort.Sort and skips its interface
// allocation.
func sortedTagsDesc(in *ops5.Instantiation, buf []int) []int {
	tags := buf
	for _, w := range in.WMEs {
		if w != nil {
			tags = append(tags, w.TimeTag)
		}
	}
	for i := 1; i < len(tags); i++ {
		for j := i; j > 0 && tags[j] > tags[j-1]; j-- {
			tags[j], tags[j-1] = tags[j-1], tags[j]
		}
	}
	return tags
}

// specificity counts the tests in a production's LHS: one per constant,
// disjunction or predicate term, plus one per class test.
func specificity(p *ops5.Production) int {
	n := 0
	for _, ce := range p.LHS {
		n++ // class test
		for _, at := range ce.Tests {
			n += len(at.Terms)
		}
	}
	return n
}
