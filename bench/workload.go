package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// workload is one closed-loop traffic shape. Each round builds it on a
// fresh world, warms it up with a fixed op count, and drives it for the
// round's timed share.
type workload struct {
	name    string
	why     string
	op      string // what one op is; the unit of ops_per_s, allocs_per_op, wire_bytes_per_op
	latency string // what op_p50_us times
	tail    string // per-layer metric that reports the latency tail, if the layer list names one
	allocs  string // per-layer alias of allocs_per_op, if the layer list names one
	warm    int    // warm-up ops
	payload int    // application payload bytes per message
	members int    // dapplets a traced message can be bound for
	every   uint64 // traced rounds stamp one message id in this many
	build   func(ctx context.Context, wl *workload, seed int64, tr *tracer) (instance, error)
}

// instance is a workload built on one world.
type instance interface {
	world() *world
	// drive runs the closed loop for exactly limit ops when limit > 0
	// (the warm-up), otherwise until stop is set, and returns once
	// everything it sent has been received and checked.
	drive(ctx context.Context, limit int, stop *atomic.Bool, t *tally)
	// nextID is the id the next message will carry.
	nextID() uint64
	// finish runs after the timed loop and the counter snapshot: it
	// tears down what build set up and adds the workload's own
	// per-layer values.
	finish(ctx context.Context, t *tally, vals map[string]float64, before, after *counters)
	// analyse turns the tracer's stamps for ids below nextID into the
	// segment table.
	analyse(s *segments)
}

// tally is what one drive counted.
type tally struct {
	ops       uint64 // ops completed and verified
	attempted uint64
	failed    uint64
	lat       samples             // op latency, ns
	aux       map[string]*samples // workload-specific timings and counts
	notes     []string
}

func (t *tally) fail(n uint64, format string, args ...any) {
	t.failed += n
	if len(t.notes) < 4 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

func (t *tally) auxAdd(name string, v int64) {
	if t.aux == nil {
		t.aux = make(map[string]*samples)
	}
	s := t.aux[name]
	if s == nil {
		s = &samples{limit: sampleLimit, stride: 1}
		t.aux[name] = s
	}
	s.add(v)
}

func (t *tally) auxP50(name string) float64 {
	if s := t.aux[name]; s != nil {
		return s.p50()
	}
	return 0
}

// roundResult is one round's value for every metric it could measure.
type roundResult struct {
	Traced    bool               `json:"traced"`
	Seed      int64              `json:"seed"`
	TimedS    float64            `json:"timed_s"`
	Ops       uint64             `json:"ops"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Values    map[string]float64 `json:"values"`
	Notes     []string           `json:"notes,omitempty"`
	TailPct   float64            `json:"tail_percentile,omitempty"` // which percentile the *_ptail_us metric is
	LatencyN  int                `json:"latency_samples,omitempty"`

	segs  *segments // traced rounds, until runSet has kept what it needs
	probe []byte
}

// drainGrace bounds how long a round may take beyond its timed share
// before the watchdog stops the world and the missing ops are counted
// as failures. The slowest legitimate drain is a lossy frame that needs
// most of its ten retries: 50 ms doubling to the 400 ms cap, 3 s in all.
const drainGrace = 10 * time.Second

func runRound(ctx context.Context, wl *workload, seed int64, dur time.Duration, traced bool) (*roundResult, error) {
	ctx, cancel := context.WithTimeout(ctx, dur+drainGrace)
	defer cancel()
	runtime.GC()

	var tr *tracer
	if traced {
		var release func()
		var err error
		if tr, release, err = newTracer(wl.members, wl.every); err != nil {
			return nil, err
		}
		defer release() // after the world has closed: defers run last-in first-out
	}
	t0 := time.Now()
	inst, err := wl.build(ctx, wl, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", wl.name, err)
	}
	w := inst.world()
	defer w.close()
	// The loops block in context-free receives; when the deadline
	// passes, stopping the dapplets is what unblocks them.
	defer context.AfterFunc(ctx, w.close)()

	var warm tally
	inst.drive(ctx, wl.warm, nil, &warm)
	setup := time.Since(t0)
	goroutines := runtime.NumGoroutine()

	var depth *depthSampler
	if tr != nil {
		tr.arm(inst.nextID())
		depth = startDepthSampler(w)
	}
	var stop atomic.Bool
	t := tally{lat: limitedSamples()}
	before := w.snapshot()
	t1 := time.Now()
	timer := time.AfterFunc(dur, func() { stop.Store(true) })
	inst.drive(ctx, 0, &stop, &t)
	elapsed := time.Since(t1)
	timer.Stop()
	after := w.snapshot()

	vals := make(map[string]float64)
	if depth != nil {
		vals["core.inbox_depth_max"], vals["transport.queue_depth_max"] = depth.stop()
	}
	inst.finish(ctx, &t, vals, &before, &after)

	r := &roundResult{
		Traced: traced, Seed: seed, TimedS: elapsed.Seconds(),
		Ops: t.ops, Attempted: t.attempted + warm.attempted, Failed: t.failed + warm.failed,
		Values: vals, Notes: append(warm.notes, t.notes...),
	}
	// Failures() events and dead letters are violations on every
	// workload: none injects enough loss to exhaust the retries.
	if n := after.tp.Failures - before.tp.Failures; n > 0 {
		r.Failed += n
		r.Notes = append(r.Notes, fmt.Sprintf("%d transport Failures() events", n))
	}
	if n := after.dead - before.dead; n > 0 {
		r.Failed += n
		r.Notes = append(r.Notes, fmt.Sprintf("%d dead letters", n))
	}
	if t.ops == 0 {
		return r, fmt.Errorf("%s: no op completed in %v", wl.name, dur)
	}

	ops := float64(t.ops)
	vals["setup_s"] = setup.Seconds()
	vals["ops_per_s"] = ops / elapsed.Seconds()
	vals["op_p50_us"] = t.lat.p50() / 1e3
	vals["allocs_per_op"] = float64(after.mem.Mallocs-before.mem.Mallocs) / ops
	dgrams := float64(after.tp.DatagramsOut - before.tp.DatagramsOut)
	// The IPv4+UDP header netsim models is charged on real UDP too, so
	// netsim and loopback rows compare.
	vals["wire_bytes_per_op"] = (float64(after.tp.BytesOut-before.tp.BytesOut) + netsim.DefaultDatagramOverhead*dgrams) / ops

	if wl.tail != "" {
		tail, pct := t.lat.ptail()
		vals[wl.tail] = tail / 1e3
		r.TailPct, r.LatencyN = pct, t.lat.n()
	}
	if wl.allocs != "" {
		vals[wl.allocs] = vals["allocs_per_op"]
	}

	if msgs := float64(after.tp.DataSent - before.tp.DataSent); msgs > 0 {
		vals["transport.datagrams_per_msg"] = dgrams / msgs
		vals["transport.acks_per_msg"] = float64(after.tp.AcksSent-before.tp.AcksSent) / msgs
		vals["transport.retx_per_msg"] = float64(after.tp.Retransmits-before.tp.Retransmits) / msgs
		vals["transport.dups_per_msg"] = float64(after.tp.DupsDropped-before.tp.DupsDropped) / msgs
		io := (after.tp.IO.ReadCalls + after.tp.IO.WriteCalls) - (before.tp.IO.ReadCalls + before.tp.IO.WriteCalls)
		vals["transport.udp_syscalls_per_msg"] = float64(io) / msgs
	}
	vals["transport.failures"] = float64(after.tp.Failures - before.tp.Failures)
	if sent := float64(after.net.Sent - before.net.Sent); sent > 0 {
		// Per datagram the network carried, so the three read back
		// the injected link rates.
		vals["netsim.lost_queue"] = float64(after.net.LostQueue - before.net.LostQueue)
		vals["netsim.lost_link_per_msg"] = float64(after.net.LostLink-before.net.LostLink) / sent
		vals["netsim.dup_per_msg"] = float64(after.net.Duplicated-before.net.Duplicated) / sent
		vals["netsim.reordered_per_msg"] = float64(after.net.Reordered-before.net.Reordered) / sent
	}
	_, maxrss := cpuTime()
	vals["proc.cpu_us_per_op"] = float64((after.cpu - before.cpu).Microseconds()) / ops
	vals["proc.heap_bytes_per_op"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / ops
	vals["proc.rss_peak_mb"] = float64(maxrss) / 1024
	vals["proc.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6 / elapsed.Seconds()
	vals["proc.goroutines"] = float64(goroutines)

	if tr != nil {
		r.segs = newSegments()
		inst.analyse(r.segs)
		for name, s := range r.segs.by {
			vals[name] = s.p50()
		}
		for d := 1; d < len(r.segs.depth); d++ {
			if s := &r.segs.depth[d]; s.n() > 0 {
				vals[fmt.Sprintf("relay.depth%d_p50_us", d)] = s.p50() / 1e3
			}
		}
		if r.segs.untiled > 0 {
			r.Failed += uint64(r.segs.untiled)
			r.Notes = append(r.Notes, fmt.Sprintf("%d of %d sampled messages do not tile: %s",
				r.segs.untiled, r.segs.messages, r.segs.firstBad))
		}
		r.probe = tr.probe
	}
	return r, nil
}

// depthSampler reads the inbox and transport queue depths once a
// millisecond during a traced round.
type depthSampler struct {
	done           chan struct{}
	wg             sync.WaitGroup
	inboxMax, qMax int
}

func startDepthSampler(w *world) *depthSampler {
	s := &depthSampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
			}
			for _, in := range w.inboxes {
				if n := in.Len(); n > s.inboxMax {
					s.inboxMax = n
				}
			}
			q := 0
			for _, d := range w.daps {
				q += d.Transport().QueueDepth()
			}
			if q > s.qMax {
				s.qMax = q
			}
		}
	}()
	return s
}

func (s *depthSampler) stop() (inboxMax, queueMax float64) {
	close(s.done)
	s.wg.Wait()
	return float64(s.inboxMax), float64(s.qMax)
}

// jsonKinds counts the registered wire kinds still on the JSON codec.
func jsonKinds() float64 {
	n := 0
	for _, k := range wire.Kinds() {
		if m, err := wire.NewOf(k); err == nil {
			if _, bin := m.(wire.BinaryMessage); !bin {
				n++
			}
		}
	}
	return float64(n)
}
