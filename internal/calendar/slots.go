// Package calendar implements the paper's first example application
// (§2.1): a session of calendar and secretary dapplets that picks a
// meeting time for a committee spread across sites.
//
// Two schedulers are provided:
//
//   - The session-based scheduler of the paper (Figure 1): each member's
//     calendar dapplet is linked to its site's secretary dapplet, and the
//     secretaries are linked to a head secretary. Availability queries
//     fan out concurrently, intersections happen at each level, and a
//     proposal is committed two-phase.
//
//   - The traditional baseline the paper contrasts against: "the director
//     or someone on the staff calls each member of the committee
//     repeatedly and negotiates with each one in turn until an agreement
//     is reached" — a sequential, one-member-at-a-time protocol.
//
// Both operate on the same calendar dapplets, so benchmarks compare like
// with like.
package calendar

import (
	"math/bits"

	"repro/internal/wire"
)

// SlotSet is a bitmap over meeting slots; bit i set means slot i is FREE.
type SlotSet []uint64

// NewSlotSet returns a set able to hold n slots, all initially busy.
func NewSlotSet(n int) SlotSet { return make(SlotSet, (n+63)/64) }

// NewAllFree returns a set with slots [0, n) free.
func NewAllFree(n int) SlotSet {
	s := NewSlotSet(n)
	for i := 0; i < n; i++ {
		s.SetFree(i)
	}
	return s
}

// SetFree marks slot i free.
func (s SlotSet) SetFree(i int) { s[i/64] |= 1 << (i % 64) }

// SetBusy marks slot i busy.
func (s SlotSet) SetBusy(i int) { s[i/64] &^= 1 << (i % 64) }

// Free reports whether slot i is free.
func (s SlotSet) Free(i int) bool {
	w := i / 64
	if w >= len(s) {
		return false
	}
	return s[w]&(1<<(i%64)) != 0
}

// And intersects o into s (slots free in both) and returns s.
func (s SlotSet) And(o SlotSet) SlotSet {
	for i := range s {
		if i < len(o) {
			s[i] &= o[i]
		} else {
			s[i] = 0
		}
	}
	return s
}

// CountRange returns the number of free slots in [lo, hi).
func (s SlotSet) CountRange(lo, hi int) int {
	n := 0
	for w := range s {
		v := s.maskWord(w, lo, hi)
		n += bits.OnesCount64(v)
	}
	return n
}

// First returns the earliest free slot in [lo, hi), or -1.
func (s SlotSet) First(lo, hi int) int {
	for w := range s {
		v := s.maskWord(w, lo, hi)
		if v != 0 {
			return w*64 + bits.TrailingZeros64(v)
		}
	}
	return -1
}

// Slice extracts the sub-range [lo, hi) as a set (same indexing).
func (s SlotSet) Slice(lo, hi int) SlotSet {
	out := make(SlotSet, len(s))
	for w := range s {
		out[w] = s.maskWord(w, lo, hi)
	}
	return out
}

// AppendBinary appends the set's binary form — a word count, then each
// word — which is BusyVar's stored form and how schedRep carries it.
// Its error is always nil.
func (s SlotSet) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendUvarint(dst, uint64(len(s)))
	for _, w := range s {
		dst = wire.AppendUvarint(dst, w)
	}
	return dst, nil
}

// UnmarshalBinary replaces *s with the set data holds.
func (s *SlotSet) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	*s = readSlots(r)
	return r.Done()
}

func readSlots(r *wire.Reader) SlotSet {
	n := r.Count()
	if n == 0 {
		return nil
	}
	s := make(SlotSet, n)
	for i := range s {
		s[i] = r.Uvarint()
	}
	return s
}

// maskWord returns word w with bits outside [lo, hi) cleared.
func (s SlotSet) maskWord(w, lo, hi int) uint64 {
	v := s[w]
	base := w * 64
	if hi <= base || lo >= base+64 {
		return 0
	}
	if lo > base {
		v &= ^uint64(0) << (lo - base)
	}
	if hi < base+64 {
		v &= (1 << (hi - base)) - 1
	}
	return v
}
