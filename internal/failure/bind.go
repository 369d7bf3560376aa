package failure

import (
	"context"
	"sync"
	"time"

	"repro/internal/session"
)

// BindSession forwards detector verdicts into a dapplet's session
// service: a Down verdict marks the peer dead in every membership whose
// roster names it (session.Membership.PeerDown), and an Up
// verdict — the peer recovered, or its restarted incarnation was heard
// from — clears it. Suspect verdicts are advisory and not forwarded.
func BindSession(det *Detector, svc *session.Service) {
	det.OnEvent(func(ev Event) {
		switch ev.State {
		case Down:
			svc.MarkPeerDown(ev.Peer)
		case Up:
			svc.MarkPeerUp(ev.Peer)
		}
	})
}

// AutoRepair closes the crash-recovery loop without manual intervention:
// when the detector commits a Down verdict for one of the session's
// participants, a repair thread retries Handle.Reincarnate — resolving
// the restarted incarnation's address through the initiator's directory —
// until the session is actually relinked off the dead address. With a
// quorum-configured detector the trigger is a quorum-confirmed verdict,
// so a partitioned watcher cannot start a split-brain repair. At most one
// repair thread runs per participant; it winds down with the initiator's
// dapplet, and a success is only a Reincarnate that moved the participant
// off the crashed address (a stale directory entry that still resolves to
// it reports success without repairing, so the loop keeps going).
func AutoRepair(det *Detector, h *session.Handle) {
	repairOnDown(det, h, func(ctx context.Context, ev Event) bool {
		if h.Reincarnate(ctx, ev.Peer) != nil {
			return false
		}
		for _, p := range h.Participants() {
			if p.Name == ev.Peer && p.Addr != ev.Addr {
				return true // relinked to the restarted incarnation
			}
		}
		return false
	})
}

// BindTreeRepair closes the relay-tree repair loop: when the detector
// commits a Down verdict for a participant of the tree session, a repair
// thread runs Handle.RepairTree — evicting the dead relay from the
// roster so every survivor rebuilds its tree (the orphaned subtree
// re-parents) and redrives its replay ring. At most one repair thread
// runs per participant; it retries until the participant is off the
// roster and winds down with the initiator's dapplet. Combine with
// AutoRepair when crashed members should also be reincarnated and
// re-grown rather than just evicted.
func BindTreeRepair(det *Detector, h *session.Handle) {
	repairOnDown(det, h, func(ctx context.Context, ev Event) bool {
		// A failed attempt is done too once another path evicted the peer.
		return h.RepairTree(ctx, ev.Peer) == nil || !inRoster(h, ev.Peer)
	})
}

// repairOnDown runs a repair thread for each Down verdict about a member
// of h's roster, at most one per participant: it calls attempt, each call
// bounded by 8 detector intervals, every 2 intervals until attempt reports
// the repair done or the detector's dapplet stops.
func repairOnDown(det *Detector, h *session.Handle, attempt func(ctx context.Context, ev Event) (done bool)) {
	var mu sync.Mutex
	repairing := make(map[string]bool)
	det.OnEvent(func(ev Event) {
		if ev.State != Down || !inRoster(h, ev.Peer) {
			return
		}
		mu.Lock()
		if repairing[ev.Peer] {
			mu.Unlock()
			return
		}
		repairing[ev.Peer] = true
		mu.Unlock()
		det.d.Spawn(func() {
			defer func() {
				mu.Lock()
				delete(repairing, ev.Peer)
				mu.Unlock()
			}()
			for {
				ctx, cancel := context.WithTimeout(context.Background(), 8*det.cfg.Interval) //wwlint:allow ctxcheck detached repair thread; each attempt bounded by 8 intervals, winds down with d.Stopped
				done := attempt(ctx, ev)
				cancel()
				if done {
					return
				}
				select {
				case <-det.d.Stopped():
					return
				case <-time.After(2 * det.cfg.Interval):
				}
			}
		})
	})
}

// inRoster reports whether name is a participant of h's session.
func inRoster(h *session.Handle, name string) bool {
	for _, p := range h.Participants() {
		if p.Name == name {
			return true
		}
	}
	return false
}
