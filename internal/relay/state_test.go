package relay

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestRelaySessionStateAllocs holds what a session costs the relay's own
// state. A relay is bound to 1,000 sessions in turn; each is sent one
// frame from each of three origins and unbound. The frames are delivered,
// which allocates the message and its envelope, so the same three frames
// are first delivered 1,000 times over one session bound throughout: what
// a bound-and-unbound session costs beyond that is its state, and it must
// be at most one allocation. After every Unbind the relay's maps must
// hold nothing of the session.
func TestRelaySessionStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	d := core.NewDapplet("me", "test", newSinkConn(), core.WithTransportConfig(transport.Config{RTO: time.Hour}))
	t.Cleanup(d.Stop)
	r := Attach(d)
	d.HandleInline("bcast", func(*wire.Envelope) {})
	parent := Member{Name: "up", Addr: netsim.Addr{Host: "up", Port: 1}}
	neighbors := []Member{parent} // Bind keeps it: one for every session
	bind := func(sid string) {
		r.Bind(sid, Binding{Neighbors: neighbors, Depth: 1, Inbox: "bcast", Epoch: 1, FromStart: true})
	}
	body, err := wire.EncodeBody(&wire.Text{S: "x"})
	if err != nil {
		t.Fatal(err)
	}
	bodyID, bodyBytes := body.ID(), append([]byte(nil), body.Bytes()...)
	body.Release()
	// One envelope and frame for every arrival: onFrame lends them.
	var frame wire.RelayFrame
	env := &wire.Envelope{FromDapplet: parent.Addr, Body: &frame}
	origins := []string{"o1", "o2", "o3"}
	arrive := func(sid string, seq uint64) {
		for _, o := range origins {
			frame = wire.RelayFrame{Origin: o, Seq: seq, Epoch: 1, TTL: 3, BodyID: bodyID, Body: bodyBytes}
			env.Session = sid
			r.onFrame(env)
		}
	}
	empty := func(sid string) {
		if n, m := len(r.sessions), len(r.origins); n != 0 || m != 0 {
			t.Fatalf("after Unbind(%q) the relay holds %d sessions and %d origins, want none", sid, n, m)
		}
	}
	const sessions = 1000
	measure := func(f func(i int)) float64 {
		for i := range 10 { // warm the maps and the decoders
			f(i)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range sessions {
			f(i)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / sessions
	}

	bind("steady")
	var seq uint64
	delivery := measure(func(int) {
		seq++
		arrive("steady", seq)
	})
	r.Unbind("steady")
	empty("steady")

	sids := make([]string, sessions)
	for i := range sids {
		sids[i] = fmt.Sprintf("s%04d", i)
	}
	cycle := measure(func(i int) {
		bind(sids[i])
		arrive(sids[i], 1)
		r.Unbind(sids[i])
		empty(sids[i])
	})
	if got, want := r.Stats().Delivered, uint64(2*(sessions+10)*len(origins)); got != want {
		t.Fatalf("delivered %d frames, want %d", got, want)
	}
	t.Logf("%.2f allocations per session, %.2f of them the three deliveries", cycle, delivery)
	if state := cycle - delivery; state > 1 {
		t.Fatalf("a session bound, sent three origins' frames and unbound allocates %.2f times beyond its deliveries, want <= 1", state)
	}
}
