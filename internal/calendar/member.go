package calendar

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// Inbox and outbox names used by the calendar session wiring.
const (
	// MemberInbox receives scheduling requests at a calendar dapplet.
	MemberInbox = "sched"
	// MemberUp is the member's outbox toward its secretary.
	MemberUp = "up"
	// SecFromMembers receives member replies at a secretary.
	SecFromMembers = "from-members"
	// SecFromHead receives head requests at a secretary.
	SecFromHead = "from-head"
	// SecDown is the secretary's outbox toward its members.
	SecDown = "down"
	// SecUp is the secretary's outbox toward the head.
	SecUp = "up-head"
	// HeadFromSecs receives secretary replies at the head.
	HeadFromSecs = "from-secs"
	// HeadDown is the head's outbox toward the secretaries.
	HeadDown = "down-secs"
	// BusyVar is the store variable holding the member's calendar.
	BusyVar = "calendar.busy"
)

// Request kinds of the scheduling protocol.
const (
	kindAvail   = "avail"
	kindPropose = "propose"
	kindCommit  = "commit"
	kindAbort   = "abort"
)

// schedReq flows downward (head -> secretary -> member) and from the
// traditional director to members.
type schedReq struct {
	ID    uint64
	RKind string
	Lo    int
	Hi    int
	Slot  int
	// ReplyTo is set by the traditional director (point-to-point);
	// session members reply on their MemberUp outbox instead.
	ReplyTo wire.InboxRef
}

// Kind implements wire.Msg.
func (*schedReq) Kind() string { return "calendar.req" }

// AppendBinary implements wire.Msg.
func (m *schedReq) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendUvarint(dst, m.ID)
	dst = wire.AppendString(dst, m.RKind)
	dst = wire.AppendVarint(dst, int64(m.Lo))
	dst = wire.AppendVarint(dst, int64(m.Hi))
	dst = wire.AppendVarint(dst, int64(m.Slot))
	dst = wire.AppendInboxRef(dst, m.ReplyTo)
	return dst, nil
}

// UnmarshalBinary implements wire.Msg.
func (m *schedReq) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.ID = r.Uvarint()
	m.RKind = r.String()
	m.Lo = int(r.Varint())
	m.Hi = int(r.Varint())
	m.Slot = int(r.Varint())
	m.ReplyTo = r.InboxRef()
	return r.Done()
}

// schedRep flows upward.
type schedRep struct {
	ID    uint64
	From  string
	RKind string
	Free  SlotSet
	OK    bool
}

// Kind implements wire.Msg.
func (*schedRep) Kind() string { return "calendar.rep" }

// AppendBinary implements wire.Msg. The free-slot bitmap is
// encoded word by word.
func (m *schedRep) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendUvarint(dst, m.ID)
	dst = wire.AppendString(dst, m.From)
	dst = wire.AppendString(dst, m.RKind)
	dst = wire.AppendUvarint(dst, uint64(len(m.Free)))
	for _, w := range m.Free {
		dst = wire.AppendUvarint(dst, w)
	}
	dst = wire.AppendBool(dst, m.OK)
	return dst, nil
}

// UnmarshalBinary implements wire.Msg.
func (m *schedRep) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.ID = r.Uvarint()
	m.From = r.String()
	m.RKind = r.String()
	if n := r.Count(); n > 0 {
		m.Free = make(SlotSet, n)
		for i := range m.Free {
			m.Free[i] = r.Uvarint()
		}
	} else {
		m.Free = nil
	}
	m.OK = r.Bool()
	return r.Done()
}

func init() {
	wire.Register(&schedReq{})
	wire.Register(&schedRep{})
}

// hold is one tentative proposal reservation: the slot, who proposed it
// (the coordinator, or the secretary relaying for it), and when, so the
// hold can be garbage-collected when the proposer dies or a lease runs
// out instead of blocking the slot forever.
type hold struct {
	slot int
	from netsim.Addr
	at   time.Time
}

// MemberBehavior is the calendar dapplet: it manages one committee
// member's persistent appointments calendar (a free-slot set) and answers
// scheduling requests reactively.
type MemberBehavior struct {
	slots int

	mu      sync.Mutex
	free    SlotSet         // bit set = slot free
	pending map[uint64]hold // in-flight proposal holds
	lease   time.Duration   // 0 = holds never expire on their own
	d       *core.Dapplet
}

// NewMember creates a calendar behaviour over a horizon of `slots` slots
// with the given initially busy slots.
func NewMember(slots int, busy []int) *MemberBehavior {
	free := NewAllFree(slots)
	for _, s := range busy {
		free.SetBusy(s)
	}
	return &MemberBehavior{slots: slots, free: free, pending: make(map[uint64]hold)}
}

// SetHoldLease bounds how long a tentative proposal hold survives without
// a commit or abort: past the lease the hold is garbage-collected and
// the slot becomes schedulable again (a coordinator that crashed mid
// proposal can no longer pin it). Zero, the default, disables the lease;
// a failure detector's Down verdict can still clear holds through
// ClearHoldsFrom / BindHoldGC. Choose a lease comfortably above the
// propose-to-commit gap: a commit whose hold was already collected is
// refused, and the scheduler reports ErrStaleHold.
func (m *MemberBehavior) SetHoldLease(d time.Duration) {
	m.mu.Lock()
	m.lease = d
	m.mu.Unlock()
}

// ClearHoldsFrom drops every tentative hold proposed from the given
// dapplet address, returning how many were cleared. Failure bindings call
// it when the proposer is declared Down (see BindHoldGC).
func (m *MemberBehavior) ClearHoldsFrom(addr netsim.Addr) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for id, h := range m.pending {
		if h.from == addr {
			delete(m.pending, id)
			n++
		}
	}
	return n
}

// Holds returns the number of live tentative proposal holds.
func (m *MemberBehavior) Holds() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireHoldsLocked(time.Now())
	return len(m.pending)
}

// expireHoldsLocked garbage-collects holds older than the lease. Caller
// holds m.mu.
func (m *MemberBehavior) expireHoldsLocked(now time.Time) {
	if m.lease <= 0 {
		return
	}
	for id, h := range m.pending {
		if now.Sub(h.at) > m.lease {
			delete(m.pending, id)
		}
	}
}

// Start implements core.Behavior: it loads any persisted calendar and
// registers the request handler. The calendar persists across sessions
// (§2.2): "an appointments calendar that disappears when an appointment is
// made has no value".
func (m *MemberBehavior) Start(d *core.Dapplet) error {
	m.d = d
	var persisted SlotSet
	if ok, err := d.Store().Get(BusyVar, &persisted); err == nil && ok && len(persisted) > 0 {
		m.mu.Lock()
		m.free = persisted
		m.mu.Unlock()
	} else if err := m.persist(); err != nil {
		return err
	}
	d.Handle(MemberInbox, m.onRequest)
	return nil
}

func (m *MemberBehavior) persist() error {
	m.mu.Lock()
	b := m.free.Clone()
	m.mu.Unlock()
	return m.d.Store().Set(BusyVar, b)
}

// freeIn returns the member's offerable slots within [lo, hi): free and
// not tentatively held by an in-flight proposal.
func (m *MemberBehavior) freeIn(lo, hi int) SlotSet {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireHoldsLocked(time.Now())
	out := m.free.Slice(lo, hi)
	for _, h := range m.pending {
		out.SetBusy(h.slot)
	}
	return out
}

// Busy reports whether a slot is booked.
func (m *MemberBehavior) Busy(slot int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.free.Free(slot)
}

func (m *MemberBehavior) onRequest(env *wire.Envelope) {
	req, ok := env.Body.(*schedReq)
	if !ok {
		return
	}
	rep := &schedRep{ID: req.ID, From: m.d.Name(), RKind: req.RKind}
	switch req.RKind {
	case kindAvail:
		rep.Free = m.freeIn(req.Lo, req.Hi)
		rep.OK = true
	case kindPropose:
		now := time.Now()
		m.mu.Lock()
		m.expireHoldsLocked(now)
		held := false
		for _, h := range m.pending {
			if h.slot == req.Slot {
				held = true
				break
			}
		}
		if !held && m.free.Free(req.Slot) {
			m.pending[req.ID] = hold{slot: req.Slot, from: env.FromDapplet, at: now}
			rep.OK = true
		}
		m.mu.Unlock()
	case kindCommit:
		// No lease expiry here: a commit arriving for a still-present hold
		// proves the coordinator is alive, so it is honoured even if the
		// hold is older than the lease. A hold already garbage-collected
		// (lazily, or by a Down verdict) makes the commit fail — OK=false —
		// which the schedulers surface as ErrStaleHold rather than
		// reporting a partially-booked meeting as scheduled.
		m.mu.Lock()
		h, held := m.pending[req.ID]
		if held {
			delete(m.pending, req.ID)
			m.free.SetBusy(h.slot)
		}
		m.mu.Unlock()
		if held {
			_ = m.persist()
		}
		rep.OK = held
	case kindAbort:
		m.mu.Lock()
		delete(m.pending, req.ID)
		m.mu.Unlock()
		rep.OK = true
	default:
		return
	}
	if !req.ReplyTo.IsZero() {
		_ = m.d.SendDirect(req.ReplyTo, env.Session, rep)
		return
	}
	_ = m.d.Outbox(MemberUp).Send(rep)
}
