package rete

import "repro/internal/ops5"

// MatchAlphas runs the constant-test network for a WME without mutating
// any memory, returning the alpha memories whose tests all pass and the
// number of constant tests evaluated. The parallel runtime and the
// statistics tools use this to dispatch WM changes.
func (n *Network) MatchAlphas(w *ops5.WME) (mems []*AlphaMem, tests int) {
	root := n.roots[w.ClassID()]
	if root == nil {
		return nil, 0
	}
	var visit func(node *ConstNode)
	visit = func(node *ConstNode) {
		tests++
		if !node.Test.Eval(w) {
			return
		}
		if node.Mem != nil {
			mems = append(mems, node.Mem)
		}
		for _, c := range node.Children {
			visit(c)
		}
	}
	visit(root)
	return mems, tests
}

// NodeCounts summarises the compiled network's size, used by README
// examples and the sharing experiments.
type NodeCounts struct {
	ConstNodes int
	AlphaMems  int
	JoinNodes  int
	NegNodes   int
	BetaMems   int
	Terminals  int
	// SharedConstSavings counts constant-test nodes saved by sharing:
	// the sum over nodes of (SharedBy - 1).
	SharedConstSavings int
	// SharedJoinSavings counts two-input nodes saved by sharing.
	SharedJoinSavings int
}

// Counts walks the network and tallies node counts and sharing savings.
func (n *Network) Counts() NodeCounts {
	var c NodeCounts
	seen := make(map[*ConstNode]bool)
	var visit func(node *ConstNode)
	visit = func(node *ConstNode) {
		if seen[node] {
			return
		}
		seen[node] = true
		c.ConstNodes++
		if node.SharedBy > 1 {
			c.SharedConstSavings += node.SharedBy - 1
		}
		for _, ch := range node.Children {
			visit(ch)
		}
	}
	for _, r := range n.roots {
		visit(r)
	}
	c.AlphaMems = len(n.alphas)
	for _, j := range n.joins {
		if j.Kind == JoinNegative {
			c.NegNodes++
		} else {
			c.JoinNodes++
		}
		if j.SharedBy > 1 {
			c.SharedJoinSavings += j.SharedBy - 1
		}
	}
	c.BetaMems = len(n.betas)
	c.Terminals = len(n.terms)
	return c
}

// StateSize returns the amount of stored match state: alpha-memory
// entries plus beta-memory tokens plus not-node left records. This is
// the §3.2 "amount of state" measure; Rete sits between TREAT (alpha
// only) and the full-state scheme (all CE combinations).
func (n *Network) StateSize() int {
	size := 0
	for _, am := range n.alphas {
		size += len(am.recs)
	}
	for _, bm := range n.betas {
		size += len(bm.recs)
	}
	for _, j := range n.joins {
		size += j.negCount + len(j.negList)
	}
	// The dummy top's permanent empty token is not match state.
	return size - 1
}
