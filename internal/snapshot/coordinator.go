package snapshot

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// ErrTimeout is returned when members do not report in time.
var ErrTimeout = errors.New("snapshot: timed out waiting for reports")

var snapSeq atomic.Uint64

// Coordinator assembles global snapshots of a fixed member set from a
// dapplet (typically the session initiator).
type Coordinator struct {
	d       *core.Dapplet
	members []Member
	timeout time.Duration
}

// NewCoordinator creates a snapshot coordinator for the given members.
func NewCoordinator(d *core.Dapplet, members []Member) *Coordinator {
	return &Coordinator{
		d:       d,
		members: append([]Member(nil), members...),
		timeout: 10 * time.Second,
	}
}

// SetTimeout bounds how long the coordinator waits for member reports.
func (c *Coordinator) SetTimeout(d time.Duration) { c.timeout = d }

func (c *Coordinator) controlRef(m Member) wire.InboxRef {
	return wire.InboxRef{Dapplet: m.Addr, Inbox: ControlInbox}
}

// gatherReports collects one report per member from in, bounded by the
// coordinator timeout or the caller's ctx, whichever ends first.
func (c *Coordinator) gatherReports(ctx context.Context, in *core.Inbox, snapID string) (*Global, error) {
	g := &Global{
		ID:       snapID,
		States:   make(map[string]json.RawMessage),
		Channels: make(map[ChannelKey][][]byte),
		Sent:     make(map[ChannelKey]uint64),
		Recv:     make(map[ChannelKey]uint64),
		Crossed:  make(map[ChannelKey]uint64),
	}
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	seen := make(map[string]bool)
	for len(seen) < len(c.members) {
		env, err := in.ReceiveEnvelopeContext(ctx)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				return nil, fmt.Errorf("%w (%d of %d)", ErrTimeout, len(seen), len(c.members))
			}
			return nil, err
		}
		rep, ok := env.Body.(*reportMsg)
		if !ok || rep.SnapID != snapID || seen[rep.Name] {
			continue
		}
		seen[rep.Name] = true
		g.States[rep.Name] = rep.State
		for peer, n := range rep.SentAt {
			g.Sent[ChannelKey{From: rep.Name, To: peer}] = n
		}
		for peer, n := range rep.RecvAt {
			g.Recv[ChannelKey{From: peer, To: rep.Name}] = n
		}
		for peer, n := range rep.Crossed {
			g.Crossed[ChannelKey{From: peer, To: rep.Name}] = n
		}
		for peer, msgs := range rep.Channels {
			g.Channels[ChannelKey{From: peer, To: rep.Name}] = msgs
		}
	}
	return g, nil
}

// SnapshotMarker runs a Chandy–Lamport marker snapshot, initiating it at
// the first member, and assembles the reports. ctx bounds the run.
func (c *Coordinator) SnapshotMarker(ctx context.Context) (*Global, error) {
	if len(c.members) == 0 {
		return nil, errors.New("snapshot: no members")
	}
	snapID := fmt.Sprintf("snap-m-%s-%d", c.d.Name(), snapSeq.Add(1))
	in := c.d.NewInbox()
	defer c.d.RemoveInbox(in.Name())
	start := &startMsg{SnapID: snapID, ReplyTo: in.Ref()}
	if err := c.d.SendDirect(c.controlRef(c.members[0]), snapID, start); err != nil {
		return nil, err
	}
	return c.gatherReports(ctx, in, snapID)
}

// SnapshotClock runs a clock-based checkpoint at logical time
// T = coordinator clock + margin. Each member records as its clock
// reaches T, and sends a flush on each outgoing channel as it records;
// the flushes close the channels, and one reaching a member that has not
// recorded yet makes it record. Right after the takes the coordinator
// pushes its clock past T and sends each member a collect, which records
// any member whose clock has not got there; a member reports once its
// collect and every peer's flush have arrived. The margin must exceed
// any plausible clock skew among members for the records to fall at T;
// the flushes make the cut consistent regardless. ctx bounds the run.
func (c *Coordinator) SnapshotClock(ctx context.Context, margin uint64) (*Global, error) {
	if len(c.members) == 0 {
		return nil, errors.New("snapshot: no members")
	}
	snapID := fmt.Sprintf("snap-c-%s-%d", c.d.Name(), snapSeq.Add(1))
	t := c.d.Clock().Now() + margin
	in := c.d.NewInbox()
	defer c.d.RemoveInbox(in.Name())

	for _, m := range c.members {
		take := &takeMsg{SnapID: snapID, T: t, ReplyTo: in.Ref()}
		if err := c.d.SendDirect(c.controlRef(m), snapID, take); err != nil {
			return nil, err
		}
	}
	c.d.Clock().ObserveRecv(t)
	for _, m := range c.members {
		if err := c.d.SendDirect(c.controlRef(m), snapID, &collectMsg{SnapID: snapID}); err != nil {
			return nil, err
		}
	}
	return c.gatherReports(ctx, in, snapID)
}
