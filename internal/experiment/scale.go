package experiment

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/swarm"
	"repro/internal/transport"
	"repro/internal/world"
)

// latencyMetrics names one swarm latency population's summary.
func latencyMetrics(name string, l swarm.LatencyStats) []Metric {
	return []Metric{
		m(name+"-count", l.Count), m(name+"-p50-ms", l.P50Ms), m(name+"-p95-ms", l.P95Ms),
		m(name+"-p99-ms", l.P99Ms), m(name+"-max-ms", l.MaxMs),
	}
}

// swarmCell runs one swarm per op (seed+i) and reads the last report.
func swarmCell(name string, cfg swarm.Config, read func(*swarm.Report) []Metric) Cell {
	return Cell{Name: name, Ops: 1, Run: func(ctx context.Context, _ Timer, ops int) ([]Metric, error) {
		var rep *swarm.Report
		for i := 0; i < ops; i++ {
			c := cfg
			c.Seed += int64(i)
			var err error
			if rep, err = swarm.Run(ctx, c); err != nil {
				return nil, err
			}
		}
		return read(rep), nil
	}}
}

// e11Cells drives the swarm-scale churn harness: a member population
// under continuous join/leave/crash/reincarnate churn with
// directory-routed sessions. The detector interval grows with the
// population so the heartbeat fabric's aggregate send rate stays within
// what one simulation process sustains; the verdict latency the report
// measures scales with it, which is why the 100k swarm holds a minute of
// churn.
func e11Cells(p Params) []Cell {
	var cells []Cell
	for _, n := range byScale(p.Scale, []int{200}, []int{2000}, []int{10_000, 100_000}) {
		cfg := swarm.Config{N: n, Seed: p.seed(42), NetShards: p.Shards,
			Interval: 250 * time.Millisecond, Duration: byScale(p.Scale, 2*time.Second, 5*time.Second, 5*time.Second)}
		switch {
		case n >= 100_000:
			cfg.Interval, cfg.RingWatch = 4*time.Second, 1
			cfg.ChurnRate, cfg.SessionRate, cfg.Duration = 500, 1000, time.Minute
		case n >= 10_000:
			cfg.Interval = time.Second
		}
		cells = append(cells, swarmCell(fmt.Sprintf("n=%d", n), cfg, func(rep *swarm.Report) []Metric {
			var out []Metric
			for _, ph := range rep.Phases {
				pre := ph.Name + "."
				out = append(out,
					m(pre+"wall-s", ph.WallSeconds), m(pre+"msgs/s", ph.MsgsPerSec), m(pre+"hb/s", ph.HeartbeatsPerSec),
					m(pre+"frames/dgram", ratio(ph.Frames, ph.Datagrams)),
					m(pre+"sa-ack%", 100*ratio(ph.AcksStandalone, ph.AcksStandalone+ph.AcksPiggybacked)),
					m(pre+"dirhit%", ph.DirHitRate*100), m(pre+"ops", ph.Ops), m(pre+"sessions", ph.Sessions),
					m(pre+"downs", ph.Downs), m(pre+"ups", ph.Ups), m(pre+"dgrams", ph.Datagrams),
					m(pre+"lostq", ph.LostQueue), m(pre+"nolisten", ph.LostNoListener))
			}
			out = append(out, latencyMetrics("down", rep.DownLatency)...)
			out = append(out, latencyMetrics("up", rep.UpLatency)...)
			out = append(out, latencyMetrics("session", rep.SessionLatency)...)
			return append(out,
				m("live", rep.LiveMembers), m("crashed-now", rep.CrashedMembers),
				m("joined", rep.Joined), m("left", rep.Left), m("crashed", rep.Crashed), m("revived", rep.Revived),
				m("watched-peers", rep.WatchedPeers),
				m("B/dapplet", rep.HeapBytesPerDapplet), m("goro/dapplet", rep.GoroutinesPerDapplet),
				m("goroutines", rep.Goroutines))
		}))
	}
	return cells
}

// e13Cells runs the same partitioned, churning swarm twice — a single
// partitioned witness can commit a Down on its own and the directory
// replicas never reconcile, vs every Down needing a quorum of two
// confirming detectors (rumor-assisted) with directory anti-entropy — and
// compares false-Down counts, verdict latency and replica convergence.
func e13Cells(p Params) []Cell {
	n := byScale(p.Scale, 150, 300, 300)
	base := swarm.Config{
		N: n, Seed: p.seed(13), NetShards: p.Shards,
		DirShards: 2, DirReplicas: 2, Initiators: 2,
		Interval: 150 * time.Millisecond, Multiplier: 2,
		PartitionRate: 2, PartitionDur: 400 * time.Millisecond,
		ChurnRate: float64(n) / 8, SessionRate: float64(n) / 4,
		Duration: byScale(p.Scale, 2*time.Second, 4*time.Second, 4*time.Second),
	}
	gossip := base
	gossip.GossipInterval = 100 * time.Millisecond
	read := func(rep *swarm.Report) []Metric {
		churn := rep.Phase("churn")
		// conv-rounds is -1 when the replicas never converged within the
		// probe bound (always, without gossip).
		return []Metric{
			m("downs", churn.Downs), m("false-downs", churn.FalseDowns), m("false%", 100*ratio(churn.FalseDowns, churn.Downs)),
			m("partitions", churn.Partitions),
			m("down-p50-ms", rep.DownLatency.P50Ms), m("down-p95-ms", rep.DownLatency.P95Ms),
			m("rounds", churn.GossipRounds), m("pulls", churn.GossipPulls), m("deltas", churn.GossipDeltas),
			m("rumors-sent", churn.RumorsSent), m("rumors-recv", churn.RumorsRecv),
			m("conv-rounds", rep.DirConvergeRounds), m("live", rep.LiveMembers),
		}
	}
	return []Cell{swarmCell("single-witness", base, read), swarmCell("quorum+gossip", gossip, read)}
}

// e12Cells sweeps the batched-I/O matrix: a busy sender round-robins
// frames over fanout receivers while receiver 0 mirrors the same volume
// back (so ack piggybacking has reverse traffic to ride). Frame
// coalescing is the transport's one send path and the UDP conn has one
// syscall per datagram, so each shape is one cell over netsim and one
// over real loopback UDP sockets. An op is one forward frame.
func e12Cells(p Params) []Cell {
	frames := byScale(p.Scale, 5000, 20000, 20000)
	var cells []Cell
	for _, medium := range []struct {
		name string
		udp  bool
	}{{"netsim", false}, {"udp", true}} {
		for _, shape := range [][2]int{{32, 1}, {256, 1}, {1024, 1}, {32, 8}} {
			cells = append(cells, Cell{
				Name: fmt.Sprintf("%s/%dB/fan%d", medium.name, shape[0], shape[1]), Ops: frames,
				Run: inWorld(p, 12, func(_ context.Context, t Timer, ops int, w *world.World) ([]Metric, error) {
					return e12Run(t, ops, w, medium.udp, shape[0], shape[1])
				})})
		}
	}
	return cells
}

func e12Run(t Timer, frames int, w *world.World, udp bool, size, fanout int) ([]Metric, error) {
	// A 1 KiB frame fills its datagram, so a window of 1024 of them
	// overruns netsim's receive queue (netsim.DefaultQueueCap datagrams)
	// and the cell measures queue-drop recovery; half the queue leaves
	// room for the acks and the mirror stream.
	window := 1024
	if size >= 1024 {
		window = netsim.DefaultQueueCap / 2
	}
	cfg := transport.Config{RTO: 100 * time.Millisecond, Window: window}
	// Receiver i takes every fanout-th frame starting at i; the sender
	// takes receiver 0's mirror stream.
	share := func(i int) int { return (frames - i + fanout - 1) / fanout }
	var delivered sync.WaitGroup
	delivered.Add(frames + share(0))
	sink := func(_, _ []byte, _ netsim.Addr) { delivered.Done() }
	listen := func(host string) (*transport.Reliable, error) {
		if !udp {
			return transport.NewReliable(w.Conn(host), cfg, sink), nil
		}
		pc, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("%w: loopback UDP unavailable: %v", ErrSkip, err)
		}
		return transport.NewReliable(pc, cfg, sink), nil
	}
	snd, err := listen("s")
	if err != nil {
		return nil, err
	}
	defer snd.Close()
	rcvs := make([]*transport.Reliable, fanout)
	for i := range rcvs {
		if rcvs[i], err = listen(fmt.Sprintf("r%d", i)); err != nil {
			return nil, err
		}
		defer rcvs[i].Close()
	}

	payload := make([]byte, size)
	t.ResetTimer()
	start := time.Now()
	err = fanOutErr(2, func(g int) error {
		if g == 0 { // the forward stream
			for i := 0; i < frames; i++ {
				if err := snd.SendWait(rcvs[i%fanout].LocalAddr(), nil, payload); err != nil {
					return err
				}
			}
			return nil
		}
		for j := 0; j < share(0); j++ { // the mirror stream
			if err := rcvs[0].SendWait(snd.LocalAddr(), nil, payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		delivered.Wait()
	}
	elapsed := time.Since(start)
	t.StopTimer()
	if err != nil {
		return nil, err
	}

	// Summed over every endpoint: logical frames (data, retransmits and
	// standalone acks) against the datagrams and syscalls that moved them.
	var logical, datagrams, acks, piggybacked, syscalls uint64
	for _, r := range append(rcvs, snd) {
		s := r.Stats()
		logical += s.DataSent + s.Retransmits + s.AcksSent
		datagrams += s.DatagramsOut
		acks, piggybacked = acks+s.AcksSent, piggybacked+s.AcksPiggybacked
		syscalls += s.IO.ReadCalls + s.IO.WriteCalls
	}
	moved := uint64(frames + share(0)) // forward plus mirrored data frames
	out := []Metric{
		m("frames/s", float64(moved)/elapsed.Seconds()),
		m("frames/dgram", ratio(logical, datagrams)),
		m("sa-ack%", 100*ratio(acks, acks+piggybacked)),
	}
	if udp {
		return append(out, m("syscalls/frame", ratio(syscalls, logical))), nil
	}
	// Wire bytes include the modelled per-datagram overhead; lostq counts
	// datagrams dropped at a full receive queue, each one recovered by a
	// retransmission the cell's frames/s pays for, and nolisten those sent
	// to an address nothing listens on.
	ns := w.Net.Stats()
	return append(out, m("wireB/frame", ratio(ns.WireBytes, moved)), m("lostq", ns.LostQueue),
		m("nolisten", ns.LostNoListener)), nil
}

// e14Cells is the large-group broadcast A/B: at each group size one
// origin broadcasts over a flat per-destination fan-out, then over the
// relay spanning tree. RunBroadcast fails the cell on any delivery loss
// or misordering at any listener. Above scenario.MaxFlatParticipants only
// the tree runs.
func e14Cells(p Params) []Cell {
	var cells []Cell
	for _, n := range byScale(p.Scale, []int{100, 400}, []int{100, 1000}, []int{100, 1000, 10_000}) {
		for _, tree := range []bool{false, true} {
			if !tree && n > scenario.MaxFlatParticipants {
				continue
			}
			opts := scenario.BroadcastOptions{
				Participants: n, Messages: byScale(p.Scale, 10, 20, 20), PayloadBytes: 64, Tree: tree,
				Seed: p.seed(14), Shards: p.Shards, Deadline: 10 * time.Minute,
			}
			cells = append(cells, Cell{Name: fmt.Sprintf("n=%d/%s", n, map[bool]string{false: "flat", true: "tree"}[tree]), Ops: 1,
				Run: func(ctx context.Context, _ Timer, ops int) ([]Metric, error) {
					var res *scenario.BroadcastResult
					for i := 0; i < ops; i++ {
						o := opts
						o.Seed += int64(i)
						var err error
						if res, err = scenario.RunBroadcast(ctx, o); err != nil {
							return nil, err
						}
					}
					return []Metric{
						m("fanout", res.Fanout), m("depth", res.Depth), m("setup-ms", ms(res.Setup)),
						m("send-ns/msg", res.SenderNsPerMsg), m("root-B", res.RootBytesOut),
						m("p50-ms", ms(res.P50)), m("p99-ms", ms(res.P99)),
						m("maxq", res.MaxQueueDepth), m("delivered", res.Delivered),
						// The top 53 bits of the delivery-order digest: exact in
						// a float64, and equal across same-seed Shards=1 runs.
						m("digest", res.Digest>>11),
					}, nil
				}})
		}
	}
	return cells
}
