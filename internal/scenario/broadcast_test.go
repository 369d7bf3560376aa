package scenario_test

import (
	"context"
	"testing"

	"repro/internal/relay"
	"repro/internal/scenario"
)

// TestBroadcastFlatAndTree runs the E14 A/B at a small size: both modes
// must deliver every message to every listener in order, the tree run
// must leave the origin's outbox free of flat bindings (Depth > 0), and
// the flat sender must write more bytes at the root than the tree
// sender.
func TestBroadcastFlatAndTree(t *testing.T) {
	flat, err := scenario.RunBroadcast(context.Background(), scenario.BroadcastOptions{
		Participants: 24, Messages: 8, Seed: 7,
	})
	if err != nil {
		t.Fatalf("flat: %v", err)
	}
	tree, err := scenario.RunBroadcast(context.Background(), scenario.BroadcastOptions{
		Participants: 24, Messages: 8, Seed: 7, Tree: true,
	})
	if err != nil {
		t.Fatalf("tree: %v", err)
	}

	wantDeliveries := 23 * 8
	if flat.Delivered != wantDeliveries || tree.Delivered != wantDeliveries {
		t.Fatalf("delivered flat=%d tree=%d, want %d", flat.Delivered, tree.Delivered, wantDeliveries)
	}
	if flat.Depth != 0 {
		t.Fatalf("flat depth = %d", flat.Depth)
	}
	if tree.Depth < 2 || tree.Fanout != relay.DefaultFanout {
		t.Fatalf("tree depth=%d fanout=%d", tree.Depth, tree.Fanout)
	}
	// 24 members at fanout 4 put 4 children under the root vs 23 flat
	// bindings: the root's wire traffic must shrink. The margin is left
	// loose here (tiny run, ack traffic); wwbench measures the real
	// ratio at 1k.
	if tree.RootBytesOut >= flat.RootBytesOut {
		t.Fatalf("tree root wrote %d bytes, flat %d — tree should be cheaper",
			tree.RootBytesOut, flat.RootBytesOut)
	}
}

// TestBroadcastLockstepDeterminism runs the tree scenario twice with the
// same seed on a single delivery shard and compares the delivery
// digests. The digest proves completion and order, not replay: it is
// folded only after every listener delivered 1..Messages in order, so
// any two successful runs match and a schedule change goes unseen here.
func TestBroadcastLockstepDeterminism(t *testing.T) {
	run := func() *scenario.BroadcastResult {
		t.Helper()
		r, err := scenario.RunBroadcast(context.Background(), scenario.BroadcastOptions{
			Participants: 17, Messages: 6, Seed: 23, Shards: 1, Tree: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Digest != b.Digest {
		t.Fatalf("lockstep digests differ: %x vs %x", a.Digest, b.Digest)
	}
	if a.Delivered != 16*6 {
		t.Fatalf("delivered = %d", a.Delivered)
	}
}
