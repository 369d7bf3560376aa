package directory

import (
	"fmt"

	"repro/internal/wire"
)

// Cluster is the client-side description of a deployed directory service:
// the name space is split into contiguous hashed-prefix ranges, one per
// shard, and each shard is served by one or more replica dapplets.
// Registrations fan out to every replica of the owning shard; lookups go
// to one replica and fail over to the next on silence.
type Cluster struct {
	shards [][]wire.InboxRef
}

// NewCluster builds a cluster from the service inbox refs of every
// replica, indexed as replicas[shard][replica]. Every shard must have at
// least one replica, and at most 256 shards are supported (ShardOf
// partitions a 256-value prefix space; more shards would never own a
// name).
func NewCluster(replicas [][]wire.InboxRef) (*Cluster, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("directory: cluster needs at least one shard")
	}
	if len(replicas) > 256 {
		return nil, fmt.Errorf("directory: at most 256 shards (got %d)", len(replicas))
	}
	shards := make([][]wire.InboxRef, len(replicas))
	for i, rs := range replicas {
		if len(rs) == 0 {
			return nil, fmt.Errorf("directory: shard %d has no replicas", i)
		}
		shards[i] = append([]wire.InboxRef(nil), rs...)
	}
	return &Cluster{shards: shards}, nil
}

// NumShards returns the number of shards.
func (c *Cluster) NumShards() int { return len(c.shards) }

// ShardOf returns the shard owning a name: the 256-value space of the
// name's hashed prefix byte is cut into `shards` contiguous ranges, the
// DHT-style prefix partitioning (each shard owns one interval of the
// hashed key space), so ownership is a pure function of (name, shard
// count). The prefix byte xor-folds all four FNV-1a bytes — the raw top
// byte barely moves between names differing only in a trailing
// character ("member-0", "member-1", …), which would cluster a whole
// family of sequential names onto one shard.
func ShardOf(name string, shards int) int {
	if shards <= 1 {
		return 0
	}
	if shards > 256 {
		shards = 256
	}
	h := fnv1a(name)
	prefix := (h ^ h>>8 ^ h>>16 ^ h>>24) & 0xFF
	return int(prefix) * shards / 256
}

// ShardOf returns the shard of this cluster owning a name.
func (c *Cluster) ShardOf(name string) int { return ShardOf(name, len(c.shards)) }

// fnv1a is the 32-bit FNV-1a hash (the same family netsim shards hosts
// with), used to spread names over the prefix space.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
