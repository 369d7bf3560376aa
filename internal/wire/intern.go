package wire

import "sync"

// The interner: one process-wide, direct-mapped table of recently
// decoded short strings. The same dapplet names, hosts, inbox names and
// session ids recur in every frame of a session's set-up, at every
// member, so a decoder that finds the bytes already in their slot hands
// out the string there and allocates nothing. A miss pays the one copy a
// decode always paid, and that copy takes the slot. The table cannot
// grow: an evicted string costs the next decode of it one copy.
// Strings are copies, never views of the input.
const (
	internSlots = 1024 // a power of two, so a hash picks a slot by mask
	internMax   = 64   // longer strings bypass the table
)

// internSlot holds the last string hashed to it.
type internSlot struct {
	mu sync.Mutex
	s  string // guarded by mu
}

// internTable is shared by every decoder in the process, as a sync.Pool
// would be: what it holds is only ever a string equal to the caller's
// bytes, so no caller can see another's state through it.
var internTable [internSlots]internSlot

// intern returns a string equal to b: the one in b's slot if it matches,
// else a new copy, which replaces it there.
func intern(b []byte) string {
	if len(b) > internMax {
		return string(b)
	}
	slot := &internTable[internIndex(b)]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.s != string(b) {
		slot.s = string(b)
	}
	return slot.s
}

// internIndex is b's slot index: FNV-1a, fixed so that allocation counts
// repeat from run to run.
func internIndex(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h & (internSlots - 1)
}
