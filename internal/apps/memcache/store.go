// Package memcache implements an in-memory LRU key-value store modeled on
// memcached, together with the application-level deflation policy of §4:
// when memory is deflated, the store shrinks its maximum cache size and
// evicts least-recently-used objects, trading hit rate for the absence of
// swapping.
package memcache

import (
	"container/list"
	"fmt"
	"sync"
	"time"
)

// perItemOverhead approximates memcached's per-item metadata cost (item
// header, hash chain pointer, LRU pointers, key copy).
const perItemOverhead = 64

// Stats is a snapshot of store counters.
type Stats struct {
	Gets, Hits, Misses uint64
	Sets               uint64
	Evictions          uint64
	Items              int
	UsedBytes          int64
	MaxBytes           int64
}

// HitRate returns Hits/Gets, or 0 before any GET.
func (s Stats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// Store is an LRU key-value cache with a dynamically resizable capacity —
// the resize is the deflation mechanism ("LRU object eviction to reduce
// memory footprint", Table 1). Store is safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	maxBytes int64
	used     int64
	items    map[string]*list.Element
	lru      *list.List // front = most recently used

	gets, hits, sets, evictions uint64

	// now returns the current time; replaceable for deterministic expiry
	// tests.
	now func() time.Time
}

type entry struct {
	key       string
	val       []byte
	expiresAt time.Time // zero = never
}

func (e *entry) expired(now time.Time) bool {
	return !e.expiresAt.IsZero() && !now.Before(e.expiresAt)
}

// NewStore creates a store capped at maxBytes of item data plus overhead.
func NewStore(maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		return nil, fmt.Errorf("memcache: max bytes must be positive, got %d", maxBytes)
	}
	return &Store{
		maxBytes: maxBytes,
		items:    make(map[string]*list.Element),
		lru:      list.New(),
		now:      time.Now,
	}, nil
}

func itemSize(key string, val []byte) int64 {
	return int64(len(key) + len(val) + perItemOverhead)
}

// Get returns the value for key and whether it was present (and not
// expired), promoting the item to most-recently-used. Expired items are
// lazily evicted on access, as memcached does.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*entry)
	if e.expired(s.now()) {
		s.removeElement(el)
		return nil, false
	}
	s.hits++
	s.lru.MoveToFront(el)
	return e.val, true
}

// Set stores key=val with no expiry.
func (s *Store) Set(key string, val []byte) error {
	return s.SetWithTTL(key, val, 0)
}

// SetWithTTL stores key=val, expiring after ttl (0 = never), evicting LRU
// items as needed. Items larger than the cache capacity are rejected with
// an error.
func (s *Store) SetWithTTL(key string, val []byte, ttl time.Duration) error {
	sz := itemSize(key, val)
	s.mu.Lock()
	defer s.mu.Unlock()
	if sz > s.maxBytes {
		return fmt.Errorf("memcache: item %q (%d bytes) exceeds cache capacity %d", key, sz, s.maxBytes)
	}
	var expiresAt time.Time
	if ttl > 0 {
		expiresAt = s.now().Add(ttl)
	}
	s.sets++
	if el, ok := s.items[key]; ok {
		e := el.Value.(*entry)
		s.used += int64(len(val)) - int64(len(e.val))
		e.val = val
		e.expiresAt = expiresAt
		s.lru.MoveToFront(el)
	} else {
		s.used += sz
		s.items[key] = s.lru.PushFront(&entry{key: key, val: val, expiresAt: expiresAt})
	}
	s.evictToFit()
	return nil
}

// Delete removes key, reporting whether it was present.
func (s *Store) Delete(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return false
	}
	s.removeElement(el)
	return true
}

// Resize changes the capacity, evicting LRU items if shrinking. This is the
// §4 deflation mechanism: invoked by the deflation agent when the VM's
// memory is reclaimed, and again (growing) on reinflation.
func (s *Store) Resize(maxBytes int64) error {
	if maxBytes <= 0 {
		return fmt.Errorf("memcache: max bytes must be positive, got %d", maxBytes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxBytes = maxBytes
	s.evictToFit()
	return nil
}

func (s *Store) evictToFit() {
	for s.used > s.maxBytes {
		back := s.lru.Back()
		if back == nil {
			return
		}
		s.removeElement(back)
		s.evictions++
	}
}

func (s *Store) removeElement(el *list.Element) {
	e := el.Value.(*entry)
	s.lru.Remove(el)
	delete(s.items, e.key)
	s.used -= itemSize(e.key, e.val)
}

// UsedBytes returns the bytes currently consumed by items and overhead.
func (s *Store) UsedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Len returns the number of items.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Gets: s.gets, Hits: s.hits, Misses: s.gets - s.hits,
		Sets: s.sets, Evictions: s.evictions,
		Items: len(s.items), UsedBytes: s.used, MaxBytes: s.maxBytes,
	}
}

// ResetStats zeroes the counters (capacity and contents are unchanged).
func (s *Store) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets, s.hits, s.sets, s.evictions = 0, 0, 0, 0
}
