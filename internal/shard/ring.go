// Package shard horizontally partitions the AmiGo control plane. A
// consistent-hash Ring assigns each measurement endpoint (ME) to one of
// N shards — each shard a full amigo.Server with its own registry,
// queues and result sink — and a thin Gateway routes every protocol
// request (JSON control calls, v3 binary batch frames) to
// the owning shard by peeking the ME name out of the request, merging
// only the admin read surface across shards.
//
// Placement is a pure function of (ME name, shard count): the vnode
// layout is fixed, the hash is FNV-1a finished with a splitmix64
// avalanche (see ringHash), and no runtime state feeds the ring, so a fleet campaign routed through N shards executes the exact
// same per-ME schedule as against one server — which is what makes the
// sharded dataset byte-identical to the single-server one
// (TestShardedFleetEquivalence) and lets a restarted gateway re-derive
// placement with no handoff protocol.
package shard

import "sort"

// vnodesPerShard is the fixed virtual-node count per shard. 128 vnodes
// keeps the max/min load ratio across shards within a few percent for
// fleet-sized ME populations while the ring stays small enough to build
// in microseconds.
const vnodesPerShard = 128

type point struct {
	hash  uint64
	shard int
}

// Ring is an immutable consistent-hash ring over a fixed shard count.
// It is safe for concurrent use.
type Ring struct {
	points []point
	shards int
}

// NewRing builds the canonical ring for n shards (n >= 1). The layout
// depends on nothing but n: vnode v of shard s hashes the literal
// string "shard-<s>/vnode-<v>", and ties (astronomically unlikely but
// cheap to define away) break toward the lower shard index.
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	r := &Ring{points: make([]point, 0, n*vnodesPerShard), shards: n}
	for s := 0; s < n; s++ {
		for v := 0; v < vnodesPerShard; v++ {
			r.points = append(r.points, point{hash: ringHash(vnodeName(s, v)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

func vnodeName(shard, vnode int) string {
	// Hand-rolled itoa keeps NewRing allocation-light; fmt.Sprintf here
	// costs ~3 allocs per vnode.
	buf := make([]byte, 0, 24)
	buf = append(buf, "shard-"...)
	buf = appendInt(buf, shard)
	buf = append(buf, "/vnode-"...)
	buf = appendInt(buf, vnode)
	return string(buf)
}

func appendInt(b []byte, n int) []byte {
	if n >= 10 {
		b = appendInt(b, n/10)
	}
	return append(b, byte('0'+n%10))
}

// Shards returns the shard count the ring was built for.
func (r *Ring) Shards() int { return r.shards }

// Shard returns the shard owning the given ME name: the shard of the
// first ring point at or after fnv64a(me), wrapping to the first point.
func (r *Ring) Shard(me string) int {
	h := ringHash(me)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// ringHash positions a name on the ring: FNV-1a finished with a
// splitmix64-style avalanche. Raw FNV-1a mixes trailing-byte changes
// poorly across the high bits that order the ring — names differing
// only in a short numeric suffix ("me-000".."me-199", and the vnode
// names themselves) land within a sliver of the keyspace, collapsing
// whole fleets onto one shard and hollowing out the vnode spread the
// 128-per-shard layout is supposed to guarantee. The finalizer
// avalanches every input bit across the word, restoring uniform vnode
// arcs and the consistent-hash movement bound resharding relies on.
func ringHash(s string) uint64 {
	return mix64(fnv64a(s))
}

// mix64 is the splitmix64 finalizer (Stafford variant 13).
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// fnv64a is FNV-1a, inlined so ring lookups never allocate a hasher.
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
