package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/transport"
)

// world is the stack under one round: a fresh network (nil over real
// UDP) and the dapplets on it, built exactly as a user would build them
// — zero-value transport.Config, ListenUDP and netsim defaults — so a
// later defaults flip shows up as a gain.
type world struct {
	net      *netsim.Network
	daps     []*core.Dapplet
	inboxes  []*core.Inbox      // receiving inboxes the depth sampler watches
	services []*session.Service // session members, for their relay counters
	tr       *tracer            // nil in untraced rounds
}

// addSim starts a dapplet on a fresh port of a simulated host.
func (w *world) addSim(host, name string) (*core.Dapplet, error) {
	ep, err := w.net.Host(host).BindAny()
	if err != nil {
		return nil, fmt.Errorf("bind on %s: %w", host, err)
	}
	return w.add(name, transport.NewSimConn(ep)), nil
}

// newSimPair is a netsim with dapplet a on host ha and b on host hb.
func newSimPair(tr *tracer, opts ...netsim.Option) (w *world, a, b *core.Dapplet, err error) {
	w = &world{net: netsim.New(opts...), tr: tr}
	if a, err = w.addSim("ha", "a"); err == nil {
		b, err = w.addSim("hb", "b")
	}
	if err != nil {
		w.close()
		return nil, nil, nil, err
	}
	return w, a, b, nil
}

// addUDP starts a dapplet on a real loopback socket.
func (w *world) addUDP(name string) (*core.Dapplet, error) {
	pc, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return w.add(name, pc), nil
}

func (w *world) add(name string, pc transport.PacketConn) *core.Dapplet {
	self := len(w.daps)
	if w.tr != nil {
		pc = w.tr.wrap(pc, self)
	}
	d := core.NewDapplet(name, "bench", pc)
	if w.tr != nil {
		w.tr.observe(self, d)
	}
	w.daps = append(w.daps, d)
	return d
}

func (w *world) close() {
	for _, d := range w.daps {
		d.Stop()
	}
	if w.net != nil {
		w.net.Close()
	}
}

// counters is every cumulative count a round takes a delta of.
type counters struct {
	mem   runtime.MemStats
	cpu   time.Duration
	tp    transport.Stats // summed over the world's dapplets
	root  transport.Stats // dapplet 0 alone (the broadcast origin)
	net   netsim.Stats
	fwd   uint64 // relay forwards, summed
	dupRx uint64 // relay duplicate frames, summed
	dead  uint64 // dead letters, summed
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func cpuTime() (time.Duration, int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss
}

func (w *world) snapshot() counters {
	var c counters
	for i, d := range w.daps {
		s := d.Transport().Stats()
		if i == 0 {
			c.root = s
		}
		c.tp.DataSent += s.DataSent
		c.tp.Retransmits += s.Retransmits
		c.tp.AcksSent += s.AcksSent
		c.tp.DupsDropped += s.DupsDropped
		c.tp.Failures += s.Failures
		c.tp.BytesOut += s.BytesOut
		c.tp.DatagramsOut += s.DatagramsOut
		c.tp.IO.ReadCalls += s.IO.ReadCalls
		c.tp.IO.WriteCalls += s.IO.WriteCalls
		c.dead += d.DeadLetters()
	}
	for _, s := range w.services {
		rs := s.Relay().Stats()
		c.fwd += rs.Forwarded
		c.dupRx += rs.DupDropped
	}
	if w.net != nil {
		c.net = w.net.Stats()
	}
	c.cpu, _ = cpuTime()
	c.mem = readMem()
	return c
}
