package failure

import "repro/internal/directory"

// BindDirectory wires a detector into a directory replica so liveness
// drives the registry:
//
//   - every entry registered on the replica is watched (including ones
//     already present at bind time);
//   - a Down verdict expires the dead dapplet's entry — lookups stop
//     resolving it with no manual Remove;
//   - a later Up verdict (the peer recovered, or its restarted
//     incarnation was heard from at a new address) revives the entry at
//     the address the heartbeat announced;
//   - an explicit Remove stops the watch (expired entries stay watched at
//     the detector's slow Down-probe rate, which is how a reincarnation
//     is discovered);
//   - with Config.Gossip, rumours go to the replica's shard siblings
//     (Service.Reconcile names them), not to the registered dapplets it
//     watches.
//
// The detector and the replica must live on the same dapplet for the
// verdicts to mean anything; note detection is bidirectional, so
// registered dapplets must watch the replica back to be monitored.
func BindDirectory(det *Detector, svc *directory.Service) {
	det.mu.Lock()
	det.replica = svc
	det.mu.Unlock()
	svc.OnUpdate(func(up directory.Update) {
		switch {
		case !up.Removed:
			det.Watch(up.Entry.Name, up.Entry.Addr)
		case up.Expired:
			// Keep watching: the slow Down probe is the path by which a
			// restarted incarnation's heartbeat revives the entry.
		default:
			det.Unwatch(up.Entry.Name)
		}
	})
	for _, e := range svc.Entries() {
		det.Watch(e.Name, e.Addr)
	}
	det.OnEvent(func(ev Event) {
		switch ev.State {
		case Down:
			svc.ExpireOwner(ev.Peer)
		case Up:
			svc.Reincarnate(ev.Peer, ev.Addr)
		}
	})
}
