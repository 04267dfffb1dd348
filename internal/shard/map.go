package shard

import (
	"fmt"
	"sort"
	"sync"
)

// Map is the seq-versioned shard map gossiped between managers and
// served to clients at GET /v1/shardmap. Ownership is computed from
// Members via the consistent-hash ring; Adopted overlays crash-stop
// takeovers (dead shard ID → adopter ID) without moving any other keys,
// so an adoption invalidates exactly the dead shard's ownership and
// nothing else.
//
// Version is a monotone sequence: any change to membership or adoption
// bumps it, and gossip merges by keeping the higher version. Managers
// stamp the version they routed under on every response as
// X-Deflation-Shard-Epoch so clients can detect stale maps.
type Map struct {
	Version uint64            `json:"version"`
	VNodes  int               `json:"vnodes,omitempty"`
	Members []Member          `json:"members"`
	Adopted map[string]string `json:"adopted,omitempty"`
}

// Clone deep-copies the map so a holder can mutate without racing
// readers of the original.
func (m Map) Clone() Map {
	out := Map{Version: m.Version, VNodes: m.VNodes}
	out.Members = make([]Member, len(m.Members))
	copy(out.Members, m.Members)
	if len(m.Adopted) > 0 {
		out.Adopted = make(map[string]string, len(m.Adopted))
		for k, v := range m.Adopted {
			out.Adopted[k] = v
		}
	}
	return out
}

// normalize sorts members by ID and dedupes, keeping the first
// occurrence of each ID, so maps compare and hash consistently.
func (m *Map) normalize() {
	sort.SliceStable(m.Members, func(a, b int) bool { return m.Members[a].ID < m.Members[b].ID })
	out := m.Members[:0]
	var last string
	for _, mem := range m.Members {
		if mem.ID == "" || mem.ID == last {
			continue
		}
		last = mem.ID
		out = append(out, mem)
	}
	m.Members = out
}

// MemberURL returns the URL for a member ID, or "" if unknown.
func (m Map) MemberURL(id string) string {
	for _, mem := range m.Members {
		if mem.ID == id {
			return mem.URL
		}
	}
	return ""
}

// resolveAdoption follows the adoption overlay from a ring owner to the
// member currently serving that shard, collapsing chains (A adopted by
// B, B adopted by C → C) and refusing cycles.
func (m Map) resolveAdoption(id string) string {
	for i := 0; i < len(m.Adopted)+1; i++ {
		next, ok := m.Adopted[id]
		if !ok || next == id {
			return id
		}
		id = next
	}
	return id
}

// View is an immutable snapshot of a Map with its ring built, safe for
// concurrent readers. Routing reads a View; gossip installs a new one.
type View struct {
	Map  Map
	ring *Ring
}

// NewView builds the ring for a map over every member, adopted or not: a
// dead shard keeps its key range on the ring and the adoption overlay maps
// it to its adopter, so adoption moves no keys.
func NewView(m Map) *View {
	m = m.Clone()
	m.normalize()
	ids := make([]string, 0, len(m.Members))
	for _, mem := range m.Members {
		ids = append(ids, mem.ID)
	}
	return &View{Map: m, ring: NewRing(ids, m.VNodes)}
}

// Owner returns the member ID serving key: ring owner, then adoption
// overlay. "" on an empty map.
func (v *View) Owner(key string) string {
	return v.Map.resolveAdoption(v.ring.Owner(key))
}

// RingOwner returns the pre-adoption ring owner of key — the shard whose
// journal records for key live under the state root.
func (v *View) RingOwner(key string) string { return v.ring.Owner(key) }

// AdopterElect returns the deterministic successor that should adopt a
// dead member's shard: the next live (not dead, not itself adopted)
// member clockwise by ID. Every surviving manager computes the same
// answer from the same Map, so adoption needs no election. Returns ""
// when no live candidate exists.
func (v *View) AdopterElect(dead string) string {
	ids := v.ring.Members()
	i := sort.SearchStrings(ids, dead)
	for step := 0; step < len(ids); step++ {
		cand := ids[(i+step)%len(ids)]
		if cand == dead || v.Map.resolveAdoption(cand) != cand {
			continue // the dead member itself, or already adopted away
		}
		return cand
	}
	return ""
}

// MapStore holds a manager's current View and applies gossip merges.
// Safe for concurrent use.
type MapStore struct {
	mu   sync.RWMutex
	view *View
}

// NewMapStore installs the initial map.
func NewMapStore(m Map) *MapStore {
	return &MapStore{view: NewView(m)}
}

// View returns the current snapshot.
func (s *MapStore) View() *View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.view
}

// Merge installs incoming if it is strictly newer than the current map.
// Returns true when the view changed.
func (s *MapStore) Merge(incoming Map) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if incoming.Version <= s.view.Map.Version {
		return false
	}
	s.view = NewView(incoming)
	return true
}

// Adopt records that adopter has taken over dead's shard, bumping the
// version. No-op (false) if the overlay already says so.
func (s *MapStore) Adopt(dead, adopter string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.view.Map.Clone()
	if m.resolveAdoption(dead) == adopter {
		return false
	}
	if m.Adopted == nil {
		m.Adopted = make(map[string]string)
	}
	m.Adopted[dead] = adopter
	m.Version++
	s.view = NewView(m)
	return true
}

// Validate rejects maps a manager cannot serve: empty membership or an
// adoption edge naming an unknown shard or adopter.
func (m Map) Validate() error {
	if len(m.Members) == 0 {
		return fmt.Errorf("shard: map v%d has no members", m.Version)
	}
	for dead, adopter := range m.Adopted {
		if m.MemberURL(dead) == "" {
			return fmt.Errorf("shard: map v%d adopts unknown shard %s", m.Version, dead)
		}
		if m.MemberURL(adopter) == "" {
			return fmt.Errorf("shard: map v%d adopts %s into unknown member %s", m.Version, dead, adopter)
		}
	}
	return nil
}
