package relay

import "repro/internal/netsim"

// Member is one participant in a session tree: the dapplet's instance
// name (stable across reincarnation) and its current address.
type Member struct {
	Name string
	Addr netsim.Addr
}

// Tree is a fanout-k spanning tree over a session roster, laid out as a
// heap: the member at roster index i has parent (i-1)/k and children
// k*i+1 .. k*i+k. The layout is a pure function of (roster order, k).
// Only the party that knows the whole roster builds one — the session
// initiator, which reads each participant's neighbourhood off it and
// ships just that (see Binding) — so lockstep replay stays bit-identical
// and no participant pays O(N) to learn its ≤ k+1 neighbours.
type Tree struct {
	members []Member
	fanout  int
	index   map[string]int
}

// DefaultFanout is the tree fanout used when a binding does not specify
// one. Four children per relay keeps depth log4(N) (1k participants in 5
// hops) while each node's forwarding work stays constant.
const DefaultFanout = 4

// NewTree builds the heap tree over members in the given order. A fanout
// below 1 selects DefaultFanout.
func NewTree(members []Member, fanout int) *Tree {
	if fanout < 1 {
		fanout = DefaultFanout
	}
	t := &Tree{
		members: append([]Member(nil), members...),
		fanout:  fanout,
		index:   make(map[string]int, len(members)),
	}
	for i, m := range t.members {
		t.index[m.Name] = i
	}
	return t
}

// Fanout returns the tree's fanout k.
func (t *Tree) Fanout() int { return t.fanout }

// AppendNeighborhood appends the roster indexes of self's corner of the
// tree to dst and returns the extended slice: self first, then its
// parent (unless self is the root), then its children in roster order —
// at most k+2 entries. It appends nothing if self is not on the roster.
// This is the layout rule; Neighbors is its projection onto members.
// Appending lets a caller laying out every member's corner in turn (the
// session initiator) reuse one buffer for all of them.
func (t *Tree) AppendNeighborhood(dst []int, self string) []int {
	i, ok := t.index[self]
	if !ok {
		return dst
	}
	dst = append(dst, i)
	if i > 0 {
		dst = append(dst, (i-1)/t.fanout)
	}
	for c := t.fanout*i + 1; c <= t.fanout*i+t.fanout && c < len(t.members); c++ {
		dst = append(dst, c)
	}
	return dst
}

// Neighbors returns self's tree neighbors — its parent (unless self is
// the root) followed by its children, in roster order. It returns nil if
// self is not on the roster or has no neighbors.
func (t *Tree) Neighbors(self string) []Member {
	hood := t.AppendNeighborhood(nil, self)
	if len(hood) < 2 {
		return nil
	}
	out := make([]Member, len(hood)-1)
	for j, i := range hood[1:] {
		out[j] = t.members[i]
	}
	return out
}

// Depth returns the number of hops from the root to the deepest leaf
// (0 for a single-member tree).
func (t *Tree) Depth() int {
	if len(t.members) <= 1 {
		return 0
	}
	d, i := 0, len(t.members)-1
	for i > 0 {
		i = (i - 1) / t.fanout
		d++
	}
	return d
}
