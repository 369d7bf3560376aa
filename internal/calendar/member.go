package calendar

import (
	"sync"

	"repro/internal/core"
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

// MemberBehavior is the calendar dapplet: it manages one committee
// member's persistent appointments calendar (a free-slot set) and answers
// scheduling requests reactively.
type MemberBehavior struct {
	slots int

	mu      sync.Mutex
	free    SlotSet        // bit set = slot free
	pending map[uint64]int // in-flight proposal holds: request id -> slot
	d       *core.Dapplet
}

// NewMember creates a calendar behaviour over a horizon of `slots` slots
// with the given initially busy slots.
func NewMember(slots int, busy []int) *MemberBehavior {
	free := NewAllFree(slots)
	for _, s := range busy {
		free.SetBusy(s)
	}
	return &MemberBehavior{slots: slots, free: free, pending: make(map[uint64]int)}
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
	out := m.free.Slice(lo, hi)
	for _, slot := range m.pending {
		out.SetBusy(slot)
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
		m.mu.Lock()
		held := false
		for _, slot := range m.pending {
			if slot == req.Slot {
				held = true
				break
			}
		}
		if !held && m.free.Free(req.Slot) {
			m.pending[req.ID] = req.Slot
			rep.OK = true
		}
		m.mu.Unlock()
	case kindCommit:
		// A commit with no hold behind it (aborted, never granted, or
		// lost when the member restarted) fails — OK=false — which the
		// schedulers surface as ErrStaleHold rather than reporting a
		// partially-booked meeting as scheduled.
		m.mu.Lock()
		slot, held := m.pending[req.ID]
		if held {
			delete(m.pending, req.ID)
			m.free.SetBusy(slot)
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
