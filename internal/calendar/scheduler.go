package calendar

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// ErrNoSlot is returned when no common free slot exists in the horizon.
var ErrNoSlot = errors.New("calendar: no common free slot")

// ErrSchedTimeout is returned when participants stop responding.
var ErrSchedTimeout = errors.New("calendar: scheduling timed out")

// ErrStaleHold is returned when a member refuses a commit because it no
// longer holds the proposal (a restarted member starts with no holds).
// Members that had already committed keep the booking, so the caller
// must treat the meeting as not reliably scheduled and renegotiate.
var ErrStaleHold = errors.New("calendar: proposal hold lost before commit")

// Result describes a completed scheduling run.
type Result struct {
	// Slot is the agreed meeting slot.
	Slot int
	// Rounds counts availability query rounds (windows examined).
	Rounds int
	// Proposals counts proposal attempts (including rejected ones).
	Proposals int
	// Calls counts protocol request messages issued by the coordinator
	// or director (excluding forwards by secretaries).
	Calls int
}

var schedID atomic.Uint64

// HeadScheduler drives the session-based scheduling protocol from the
// director's coordinator dapplet. Its HeadDown outbox must be linked to
// either secretary dapplets (hierarchical, Figure 1) or calendar dapplets
// directly (flat), and replies arrive on the HeadFromSecs inbox.
type HeadScheduler struct {
	d       *core.Dapplet
	slots   int
	timeout time.Duration
}

// NewHeadScheduler creates a scheduler on the coordinator dapplet for a
// horizon of `slots` slots.
func NewHeadScheduler(d *core.Dapplet, slots int) *HeadScheduler {
	return &HeadScheduler{d: d, slots: slots, timeout: 30 * time.Second}
}

// SetTimeout bounds each gather phase.
func (h *HeadScheduler) SetTimeout(d time.Duration) { h.timeout = d }

// roundTrip multicasts one request down and aggregates all replies. The
// gather phase is bounded by the scheduler timeout or the caller's ctx,
// whichever ends first.
func (h *HeadScheduler) roundTrip(ctx context.Context, req *schedReq) (*schedRep, error) {
	n := len(h.d.Outbox(HeadDown).Destinations())
	if n == 0 {
		return nil, errors.New("calendar: scheduler has no downstream links")
	}
	if err := h.d.Outbox(HeadDown).Send(req); err != nil {
		return nil, err
	}
	in := h.d.Inbox(HeadFromSecs)
	agg := &schedRep{ID: req.ID, RKind: req.RKind, OK: true}
	if req.RKind == kindAvail {
		agg.Free = NewAllFree(h.slots).Slice(req.Lo, req.Hi)
	}
	ctx, cancel := context.WithTimeout(ctx, h.timeout)
	defer cancel()
	for got := 0; got < n; {
		env, err := in.ReceiveEnvelopeContext(ctx)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				return nil, fmt.Errorf("%w (%d of %d replies to %s)", ErrSchedTimeout, got, n, req.RKind)
			}
			return nil, err
		}
		rep, ok := env.Body.(*schedRep)
		if !ok || rep.ID != req.ID {
			continue
		}
		got++
		if req.RKind == kindAvail {
			agg.Free.And(rep.Free)
		} else {
			agg.OK = agg.OK && rep.OK
		}
	}
	return agg, nil
}

// Schedule finds the earliest slot in [lo, hi) that every member is free
// for, examining `window` slots per availability round, and books it
// two-phase (propose, then commit). ctx bounds the whole negotiation;
// each gather phase is additionally bounded by the scheduler timeout.
func (h *HeadScheduler) Schedule(ctx context.Context, lo, hi, window int) (Result, error) {
	if window <= 0 {
		window = hi - lo
	}
	var res Result
	for wLo := lo; wLo < hi; wLo += window {
		wHi := wLo + window
		if wHi > hi {
			wHi = hi
		}
		res.Rounds++
		id := schedID.Add(1)
		res.Calls++
		avail, err := h.roundTrip(ctx, &schedReq{ID: id, RKind: kindAvail, Lo: wLo, Hi: wHi})
		if err != nil {
			return res, err
		}
		cand := avail.Free
		for {
			slot := cand.First(wLo, wHi)
			if slot < 0 {
				break // no common slot in this window; widen
			}
			res.Proposals++
			pid := schedID.Add(1)
			res.Calls++
			conf, err := h.roundTrip(ctx, &schedReq{ID: pid, RKind: kindPropose, Slot: slot})
			if err != nil {
				return res, err
			}
			if !conf.OK {
				// Somebody's calendar changed under us: abort the holds
				// and try the next candidate.
				res.Calls++
				if _, err := h.roundTrip(ctx, &schedReq{ID: pid, RKind: kindAbort}); err != nil {
					return res, err
				}
				cand.SetBusy(slot)
				continue
			}
			res.Calls++
			conf, err = h.roundTrip(ctx, &schedReq{ID: pid, RKind: kindCommit, Slot: slot})
			if err != nil {
				return res, err
			}
			if !conf.OK {
				return res, fmt.Errorf("%w: slot %d", ErrStaleHold, slot)
			}
			res.Slot = slot
			return res, nil
		}
	}
	return res, ErrNoSlot
}

// Traditional is the baseline the paper contrasts with (§2.1): the
// director "calls each member of the committee repeatedly and negotiates
// with each one in turn until an agreement is reached". Every interaction
// is a sequential point-to-point exchange; there is no session and no
// concurrency.
type Traditional struct {
	d       *core.Dapplet
	members []wire.InboxRef
	slots   int
	timeout time.Duration
}

// NewTraditional creates the sequential director over the members'
// scheduling inboxes.
func NewTraditional(d *core.Dapplet, members []wire.InboxRef, slots int) *Traditional {
	return &Traditional{d: d, members: members, slots: slots, timeout: 30 * time.Second}
}

// call performs one sequential phone call to a member, bounded by the
// director timeout or the caller's ctx, whichever ends first.
func (t *Traditional) call(ctx context.Context, member wire.InboxRef, req *schedReq, replyIn *core.Inbox) (*schedRep, error) {
	req.ReplyTo = replyIn.Ref()
	if err := t.d.SendDirect(member, "", req); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, t.timeout)
	defer cancel()
	for {
		env, err := replyIn.ReceiveEnvelopeContext(ctx)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				return nil, ErrSchedTimeout
			}
			return nil, err
		}
		rep, ok := env.Body.(*schedRep)
		if !ok || rep.ID != req.ID {
			continue
		}
		return rep, nil
	}
}

// Schedule negotiates a meeting slot sequentially, window by window.
// ctx bounds the whole negotiation.
func (t *Traditional) Schedule(ctx context.Context, lo, hi, window int) (Result, error) {
	if window <= 0 {
		window = hi - lo
	}
	replyIn := t.d.NewInbox()
	defer t.d.RemoveInbox(replyIn.Name())
	var res Result
	for wLo := lo; wLo < hi; wLo += window {
		wHi := wLo + window
		if wHi > hi {
			wHi = hi
		}
		res.Rounds++
		cand := NewAllFree(t.slots).Slice(wLo, wHi)
		feasible := true
		for _, m := range t.members {
			res.Calls++
			rep, err := t.call(ctx, m, &schedReq{ID: schedID.Add(1), RKind: kindAvail, Lo: wLo, Hi: wHi}, replyIn)
			if err != nil {
				return res, err
			}
			cand.And(rep.Free)
			if cand.CountRange(wLo, wHi) == 0 {
				feasible = false
				break // renegotiate in the next window
			}
		}
		if !feasible {
			continue
		}
		for {
			slot := cand.First(wLo, wHi)
			if slot < 0 {
				break
			}
			res.Proposals++
			pid := schedID.Add(1)
			allOK := true
			var accepted []wire.InboxRef
			for _, m := range t.members {
				res.Calls++
				rep, err := t.call(ctx, m, &schedReq{ID: pid, RKind: kindPropose, Slot: slot}, replyIn)
				if err != nil {
					return res, err
				}
				if !rep.OK {
					allOK = false
					break
				}
				accepted = append(accepted, m)
			}
			if !allOK {
				for _, m := range accepted {
					res.Calls++
					if _, err := t.call(ctx, m, &schedReq{ID: pid, RKind: kindAbort}, replyIn); err != nil {
						return res, err
					}
				}
				cand.SetBusy(slot)
				continue
			}
			for _, m := range t.members {
				res.Calls++
				rep, err := t.call(ctx, m, &schedReq{ID: pid, RKind: kindCommit, Slot: slot}, replyIn)
				if err != nil {
					return res, err
				}
				if !rep.OK {
					return res, fmt.Errorf("%w: slot %d", ErrStaleHold, slot)
				}
			}
			res.Slot = slot
			return res, nil
		}
	}
	return res, ErrNoSlot
}
