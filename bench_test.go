// Package repro holds the top-level benchmark harness: BenchmarkExperiment
// walks the experiment registry (internal/experiment — F1-F3, T1, E1-E14
// of DESIGN.md's matrix, the same definitions cmd/wwbench prints as
// tables), and E0 stays here because it needs testing.B.RunParallel.
package repro

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/experiment"
	"repro/internal/netsim"
)

// BenchmarkNetsimParallelSend measures raw datagram throughput of the
// sharded delivery engine under concurrent senders on disjoint host
// pairs (experiment E0 in DESIGN.md). Run with -cpu 1,4,8 to observe
// scaling; compare against WithShards(1) (the single-lock-equivalent
// configuration) via BenchmarkNetsimParallelSendShards in
// internal/netsim.
func BenchmarkNetsimParallelSend(b *testing.B) {
	const pairs = 64
	net := netsim.New(netsim.WithSeed(1))
	defer net.Close()
	srcs := make([]*netsim.Endpoint, pairs)
	dsts := make([]*netsim.Endpoint, pairs)
	for i := 0; i < pairs; i++ {
		var err error
		if srcs[i], err = net.Host(fmt.Sprintf("src%d", i)).Bind(1); err != nil {
			b.Fatal(err)
		}
		if dsts[i], err = net.Host(fmt.Sprintf("dst%d", i)).Bind(1); err != nil {
			b.Fatal(err)
		}
		go func(e *netsim.Endpoint) {
			for {
				if _, err := e.Recv(); err != nil {
					return
				}
			}
		}(dsts[i])
	}
	payload := []byte("payload-payload-payload-payload")
	b.SetBytes(int64(len(payload)))
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)-1) % pairs
		src, to := srcs[i], dsts[i].Addr()
		for pb.Next() {
			if err := src.Send(to, payload); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

var benchScale = flag.String("scale", "smoke",
	"BenchmarkExperiment: size of the population-bound experiments (smoke, std, full; see internal/experiment)")

// BenchmarkExperiment runs every cell of the registry as
// BenchmarkExperiment/<id>/<cell>, b.N ops each, and reports the cell's
// metrics under the names wwbench prints. -scale picks the E11-E14 sizes
// (`go test -bench 'BenchmarkExperiment/E11' -benchtime 1x -scale full .`).
func BenchmarkExperiment(b *testing.B) {
	scale, err := experiment.ParseScale(*benchScale)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range experiment.All() {
		b.Run(e.ID, func(b *testing.B) {
			for _, c := range e.Cells(experiment.Params{Scale: scale}) {
				b.Run(c.Name, func(b *testing.B) {
					metrics, err := c.Run(context.Background(), b, b.N)
					if errors.Is(err, experiment.ErrSkip) {
						b.Skip(err)
					}
					if err != nil {
						b.Fatal(err)
					}
					for _, m := range metrics {
						b.ReportMetric(m.Value, m.Name)
					}
				})
			}
		})
	}
}
