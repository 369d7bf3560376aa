package snapshot

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/world"
)

// TestChannelWriteThrough records two runs at one member, "old" and then
// "new", so the durable record is new's, and delivers k messages on a
// channel both runs are recording: the record must hold the k messages
// once each, in arrival order, and old must leave it alone.
func TestChannelWriteThrough(t *testing.T) {
	w := world.New(transport.Config{}, netsim.WithSeed(5))
	t.Cleanup(w.Close)
	d := w.Dapplet("hm", "t", "member")
	peer := w.Dapplet("hp", "t", "peer")
	s := Attach(d, func() []byte { return []byte("state") })
	s.SetPeers([]Member{{Name: "peer", Addr: peer.Addr()}})

	s.mu.Lock()
	for _, id := range []string{"old", "new"} {
		s.recordLocked(id, s.runLocked(id, false, 0, wire.InboxRef{}))
	}
	s.mu.Unlock()
	const k = 5
	for i := range k {
		s.onRecv(&wire.Envelope{
			To:          wire.InboxRef{Dapplet: d.Addr(), Inbox: "data"},
			FromDapplet: peer.Addr(),
			Lamport:     uint64(100 + i),
			Body:        &wire.Text{S: fmt.Sprint(i)},
		})
	}

	cp, ok := LastCheckpoint(d.Store())
	if !ok || cp.ID != "new" || string(cp.State) != "state" {
		t.Fatalf("durable record = %+v, %v; want run new's", cp, ok)
	}
	if len(cp.Channels) != k {
		t.Fatalf("durable record holds %d channel messages, want %d", len(cp.Channels), k)
	}
	for i, c := range cp.Channels {
		body, err := wire.Unmarshal(c.Body)
		if err != nil {
			t.Fatal(err)
		}
		if c.Peer != "peer" || c.Inbox != "data" || c.Lamport != uint64(100+i) || body.(*wire.Text).S != fmt.Sprint(i) {
			t.Fatalf("channel message %d = %+v (%v)", i, c, body)
		}
	}
	// Both runs captured every message in memory, for their reports.
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range []string{"old", "new"} {
		if n := len(s.runs[id].channels["peer"]); n != k {
			t.Fatalf("run %s captured %d messages, want %d", id, n, k)
		}
	}
}
