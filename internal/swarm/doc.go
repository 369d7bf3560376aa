// Package swarm is the E11 swarm-scale churn harness: it spins up
// thousands to 100k+ dapplets on the sharded netsim, wires them into a
// liveness mesh (ring neighbors plus the replicated directory's
// replicas, every watch edge symmetric because detection is
// bidirectional), then drives continuous join/leave/crash/reincarnate
// churn and a stream of initiator sessions through the directory while
// sampling what the fabric costs: detector CPU per watched peer,
// heartbeat and probe rates, directory shard throughput and client
// cache hit rates, transport bytes, and per-dapplet memory.
//
// The harness has two modes. Throughput mode (the default) runs churn
// and session drivers concurrently at configured rates for a wall-clock
// duration — the load-generation shape experiments E11 and E13 use
// (internal/experiment). Lockstep mode serializes one churn op at a time and
// awaits each op's observable outcome (every watcher's Down after a
// crash, every watcher's Up after a reincarnation) before logging it,
// so a run over a single-shard network (netsim.WithShards(1)) with a
// fixed seed produces a bit-identical event log — the determinism
// harness that makes churn bugs replayable.
package swarm
