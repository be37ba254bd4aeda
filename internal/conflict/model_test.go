package conflict

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/ops5"
)

// modelSet is the conflict set as it was before entries lived by value
// behind an identity hash: a map from Instantiation.Key strings to
// heap entries, ranged over by Select. FuzzConflictSetVsModel holds the
// current Set to it.
type modelSet struct {
	strategy Strategy
	items    map[string]*modelEntry
}

type modelEntry struct {
	inst  *ops5.Instantiation
	fired bool
	key   string
	mea   int
	tags  []int
	spec  int
}

func newModelSet(strategy Strategy) *modelSet {
	return &modelSet{strategy: strategy, items: make(map[string]*modelEntry)}
}

func (s *modelSet) Len() int { return len(s.items) }

func (s *modelSet) Insert(in *ops5.Instantiation) {
	k := in.Key()
	if _, ok := s.items[k]; ok {
		return
	}
	s.items[k] = &modelEntry{inst: in, key: k, mea: meaTag(in), spec: specificity(in.Production),
		tags: sortedTagsDesc(in, nil)}
}

func (s *modelSet) Remove(in *ops5.Instantiation) { delete(s.items, in.Key()) }

func (s *modelSet) MarkFired(key string) {
	if e, ok := s.items[key]; ok {
		e.fired = true
	}
}

func (s *modelSet) FiredKeys() []string {
	var keys []string
	for k, e := range s.items {
		if e.fired {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func (s *modelSet) Contains(in *ops5.Instantiation) bool {
	_, ok := s.items[in.Key()]
	return ok
}

func (s *modelSet) Instantiations() []*ops5.Instantiation {
	entries := make([]*modelEntry, 0, len(s.items))
	for _, e := range s.items {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return s.better(entries[i], entries[j]) })
	out := make([]*ops5.Instantiation, len(entries))
	for i, e := range entries {
		out[i] = e.inst
	}
	return out
}

func (s *modelSet) Select() *ops5.Instantiation {
	var best *modelEntry
	for _, e := range s.items {
		if !e.fired && (best == nil || s.better(e, best)) {
			best = e
		}
	}
	if best == nil {
		return nil
	}
	best.fired = true
	return best.inst
}

func (s *modelSet) better(a, b *modelEntry) bool {
	if s.strategy == MEA && a.mea != b.mea {
		return a.mea > b.mea
	}
	for i := 0; i < len(a.tags) && i < len(b.tags); i++ {
		if a.tags[i] != b.tags[i] {
			return a.tags[i] > b.tags[i]
		}
	}
	if len(a.tags) != len(b.tags) {
		return len(a.tags) > len(b.tags)
	}
	if a.spec != b.spec {
		return a.spec > b.spec
	}
	if a.inst.Production.Order != b.inst.Production.Order {
		return a.inst.Production.Order < b.inst.Production.Order
	}
	return a.key < b.key
}

// fuzzProds are the productions fuzzed instantiations draw from: two
// with equal specificity and order (so ties fall through to the key),
// one with a negated middle CE (a nil WME), one longer than the inline
// tag storage, and one whose name contains the key separator.
func fuzzProds() []*ops5.Production {
	ce := func(neg bool, tests int) *ops5.CondElement {
		c := &ops5.CondElement{Class: "c", Negated: neg}
		for i := 0; i < tests; i++ {
			c.Tests = append(c.Tests, ops5.AttrTest{Attr: "a",
				Terms: []ops5.Term{{Kind: ops5.TermConst, Val: ops5.Num(float64(i))}}})
		}
		return c
	}
	long := &ops5.Production{Name: "long", Order: 3}
	for i := 0; i < 10; i++ {
		long.LHS = append(long.LHS, ce(false, 0))
	}
	return []*ops5.Production{
		{Name: "alpha", Order: 0, LHS: []*ops5.CondElement{ce(false, 1), ce(false, 0)}},
		{Name: "beta", Order: 0, LHS: []*ops5.CondElement{ce(false, 0), ce(false, 1)}},
		{Name: "gamma", Order: 1, LHS: []*ops5.CondElement{ce(false, 0), ce(true, 0), ce(false, 2)}},
		long,
		{Name: "a|1", Order: 4, LHS: []*ops5.CondElement{ce(false, 0)}},
	}
}

// fuzzTags mixes digit counts so key order and numeric order disagree.
var fuzzTags = []int{1, 2, 9, 10, 12, 21, 100, 101, 1000}

// opReader draws fuzz decisions from the input bytes.
type opReader struct{ b []byte }

func (r *opReader) more() bool { return len(r.b) > 0 }

func (r *opReader) next() int {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return int(v)
}

// inst builds a fresh instantiation from the next bytes. Both sets get
// distinct but equal objects, as matchers that rebuild on removal do.
func (r *opReader) inst(prods []*ops5.Production) (a, b *ops5.Instantiation) {
	p := prods[r.next()%len(prods)]
	a = ops5.NewInstantiation(p, len(p.LHS))
	b = ops5.NewInstantiation(p, len(p.LHS))
	for i, ce := range p.LHS {
		if ce.Negated {
			continue
		}
		tag := fuzzTags[r.next()%len(fuzzTags)]
		wa, wb := ops5.NewWME("c"), ops5.NewWME("c")
		wa.TimeTag, wb.TimeTag = tag, tag
		a.WMEs[i], b.WMEs[i] = wa, wb
	}
	return a, b
}

func keysOf(insts []*ops5.Instantiation) []string {
	keys := make([]string, len(insts))
	for i, in := range insts {
		keys[i] = in.Key()
	}
	return keys
}

// FuzzConflictSetVsModel runs random Insert, Remove (with fresh equal
// instantiations), Select, MarkFired, FiredKeys, Contains and
// Instantiations calls against Set and modelSet: every answer, the
// Select sequence and the Instantiations order must be identical.
func FuzzConflictSetVsModel(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 0, 0, 2, 1, 2, 2, 2})
	f.Add([]byte{1, 0, 1, 4, 5, 0, 1, 5, 4, 0, 0, 4, 5, 5, 2, 5, 4, 2, 2, 6})
	f.Add([]byte{0, 0, 3, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 0, 4, 7, 2, 3, 3, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 4, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &opReader{b: data}
		strategy := LEX
		if r.next()%2 == 1 {
			strategy = MEA
		}
		s, m := NewSet(strategy), newModelSet(strategy)
		prods := fuzzProds()
		for step := 0; r.more(); step++ {
			switch op := r.next() % 7; op {
			case 0:
				a, b := r.inst(prods)
				s.Insert(a)
				m.Insert(b)
			case 1:
				a, b := r.inst(prods)
				s.Remove(a)
				m.Remove(b)
			case 2:
				got, want := s.Select(), m.Select()
				if (got == nil) != (want == nil) || (got != nil && got.Key() != want.Key()) {
					t.Fatalf("step %d: Select = %v, model %v", step, got, want)
				}
			case 3:
				a, _ := r.inst(prods)
				s.MarkFired(a.Key())
				m.MarkFired(a.Key())
			case 4:
				if got, want := s.FiredKeys(), m.FiredKeys(); !slices.Equal(got, want) {
					t.Fatalf("step %d: FiredKeys = %q, model %q", step, got, want)
				}
			case 5:
				if got, want := keysOf(s.Instantiations()), keysOf(m.Instantiations()); !slices.Equal(got, want) {
					t.Fatalf("step %d: Instantiations = %q, model %q", step, got, want)
				}
			case 6:
				a, b := r.inst(prods)
				if s.Contains(a) != m.Contains(b) {
					t.Fatalf("step %d: Contains(%s) = %v, model %v", step, a.Key(), s.Contains(a), m.Contains(b))
				}
			}
			if s.Len() != m.Len() {
				t.Fatalf("step %d: Len = %d, model %d", step, s.Len(), m.Len())
			}
		}
		if got, want := keysOf(s.Instantiations()), keysOf(m.Instantiations()); !slices.Equal(got, want) {
			t.Fatalf("final Instantiations = %q, model %q", got, want)
		}
	})
}
