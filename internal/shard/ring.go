// Package shard federates the deflation control plane across N manager
// shards. A consistent-hash ring (virtual nodes over FNV-64a) assigns
// every node agent — and every VM command, keyed by VM name — to exactly
// one shard; each shard runs the existing WAL/fencing/TakeOver machinery
// (internal/cluster) on its own journal under a shared state root, so a
// peer manager can adopt a dead shard by replaying its journal,
// fence-bumping past the cluster-wide epoch maximum, and anti-entropy
// reconciling against the dead shard's live agents. Ring membership is
// fixed at boot and adoption only adds an overlay edge, so a node's ring
// owner never changes and the router always sends its registration there.
//
// The package has five layers:
//
//   - the ring (this file) and the seq-versioned shard Map (map.go):
//     deterministic ownership, gossiped between managers;
//   - Router (router.go): the HTTP front door of each manager — requests
//     for keys the local shard owns are served, everything else is
//     redirected (307 + X-Deflation-Shard-Epoch) to the owner;
//   - Server (server.go): one federated manager process — its own shard
//     recovered from its journal, its Router, and journal adoption of dead
//     peers' shards;
//   - Federation (federation.go): N Servers over real HTTP listeners with
//     crash-stop Kill and adopter election;
//   - the deflload harness (load.go): thousands of in-process node agents
//     driving open-loop registrations/heartbeats/launches/migrations at
//     the federation while chaos (leader kill, partitions, slow disks)
//     runs, asserting no lost acknowledged registrations, no split-brain
//     writes, and bounded convergence after adoption.
package shard

import (
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the virtual-node count per member when a Map does not
// specify one. 64 vnodes keeps the max/mean ownership skew under ~1.25
// for small member counts while the ring stays tiny (N×64 points).
const DefaultVNodes = 64

// Member is one manager shard in the ring: a stable identity plus the
// base URL peers and clients use to reach it.
type Member struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Ring is an immutable consistent-hash ring over a set of members.
// Construction is deterministic: the same members (in any order, with
// duplicates) always produce the same ring, so every manager that holds
// the same Map computes identical ownership without coordination.
type Ring struct {
	points []ringPoint // sorted by hash
	ids    []string    // deduped, sorted member IDs
}

type ringPoint struct {
	hash uint64
	id   string
}

// NewRing builds a ring with the given virtual-node count (0 means
// DefaultVNodes). Duplicate IDs are deduped; order does not matter. An
// empty id list yields an empty ring whose Owner returns "".
func NewRing(ids []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(ids))
	uniq := make([]string, 0, len(ids))
	for _, id := range ids {
		if id == "" || seen[id] {
			continue
		}
		seen[id] = true
		uniq = append(uniq, id)
	}
	sort.Strings(uniq)
	r := &Ring{ids: uniq}
	if len(uniq) == 0 {
		return r
	}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for _, id := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hashPoint(id, i), id: id})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Ties (astronomically rare with 64-bit hashes, but possible with
		// adversarial IDs) break deterministically by ID so all managers
		// agree.
		return r.points[a].id < r.points[b].id
	})
	return r
}

// hashPoint derives the ring position of one virtual node.
func hashPoint(id string, vnode int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	h.Write([]byte{'#'})
	var buf [4]byte
	buf[0] = byte(vnode >> 24)
	buf[1] = byte(vnode >> 16)
	buf[2] = byte(vnode >> 8)
	buf[3] = byte(vnode)
	h.Write(buf[:])
	return mix64(h.Sum64())
}

func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is a full-avalanche 64-bit finalizer (the murmur3 fmix64
// constants). Raw FNV-64a of short, similar strings — exactly what shard
// IDs and node names are — leaves enough correlation in the high bits to
// skew ring arcs 3:1; finalizing restores uniform dispersion.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Members returns the deduped, sorted member IDs on the ring.
func (r *Ring) Members() []string {
	out := make([]string, len(r.ids))
	copy(out, r.ids)
	return out
}

// Len returns the number of distinct members on the ring.
func (r *Ring) Len() int { return len(r.ids) }

// Owner returns the member owning key: the first virtual node clockwise
// from the key's hash, wrapping at the top of the ring. An empty ring
// owns nothing and returns "".
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].id
}
