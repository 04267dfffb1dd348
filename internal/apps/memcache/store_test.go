package memcache

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func mustStore(t *testing.T, maxBytes int64) *Store {
	t.Helper()
	s, err := NewStore(maxBytes)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return s
}

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore(0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewStore(-5); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestGetSetRoundTrip(t *testing.T) {
	s := mustStore(t, 1<<20)
	if _, ok := s.Get("k"); ok {
		t.Error("Get on empty store hit")
	}
	if err := s.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get("k")
	if !ok || string(v) != "v" {
		t.Errorf("Get = %q/%v, want v/true", v, ok)
	}
	st := s.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Misses != 1 || st.Sets != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate = %g, want 0.5", st.HitRate())
	}
}

func TestSetOverwriteAdjustsUsage(t *testing.T) {
	s := mustStore(t, 1<<20)
	if err := s.Set("k", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	u1 := s.UsedBytes()
	if err := s.Set("k", make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	if got := s.UsedBytes(); got != u1-50 {
		t.Errorf("used after shrinking overwrite = %d, want %d", got, u1-50)
	}
	if s.Len() != 1 {
		t.Errorf("len = %d, want 1", s.Len())
	}
}

func TestOversizedItemRejected(t *testing.T) {
	s := mustStore(t, 128)
	if err := s.Set("k", make([]byte, 1000)); err == nil {
		t.Error("oversized item accepted")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Room for roughly 3 items of 100B + overhead.
	s := mustStore(t, 3*(100+64+2))
	for i := 0; i < 3; i++ {
		if err := s.Set(fmt.Sprintf("k%d", i), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k0 so k1 becomes LRU.
	s.Get("k0")
	if err := s.Set("k3", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k1"); ok {
		t.Error("LRU item k1 survived eviction")
	}
	if _, ok := s.Get("k0"); !ok {
		t.Error("recently-used k0 was evicted")
	}
	if s.Stats().Evictions == 0 {
		t.Error("no evictions recorded")
	}
}

func TestDelete(t *testing.T) {
	s := mustStore(t, 1<<20)
	s.Set("k", []byte("v"))
	if !s.Delete("k") {
		t.Error("Delete existing = false")
	}
	if s.Delete("k") {
		t.Error("Delete missing = true")
	}
	if s.UsedBytes() != 0 || s.Len() != 0 {
		t.Errorf("store not empty after delete: used=%d len=%d", s.UsedBytes(), s.Len())
	}
}

func TestResizeEvicts(t *testing.T) {
	s := mustStore(t, 1<<20)
	for i := 0; i < 100; i++ {
		if err := s.Set(fmt.Sprintf("k%03d", i), make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	half := s.UsedBytes() / 2
	if err := s.Resize(half); err != nil {
		t.Fatal(err)
	}
	if s.UsedBytes() > half {
		t.Errorf("used %d exceeds new capacity %d", s.UsedBytes(), half)
	}
	if s.Len() >= 100 || s.Len() == 0 {
		t.Errorf("len after resize = %d", s.Len())
	}
	// Growing evicts nothing.
	n := s.Len()
	if err := s.Resize(1 << 20); err != nil {
		t.Fatal(err)
	}
	if s.Len() != n {
		t.Error("grow resize evicted items")
	}
	if err := s.Resize(0); err == nil {
		t.Error("Resize(0) accepted")
	}
}

func TestResetStats(t *testing.T) {
	s := mustStore(t, 1<<20)
	s.Set("k", []byte("v"))
	s.Get("k")
	s.ResetStats()
	st := s.Stats()
	if st.Gets != 0 || st.Sets != 0 || st.Hits != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
	if st.Items != 1 {
		t.Error("reset cleared contents")
	}
}

func TestStatsHitRateEmpty(t *testing.T) {
	if (Stats{}).HitRate() != 0 {
		t.Error("hit rate with no gets != 0")
	}
}

// Property: usage never exceeds capacity, whatever the op sequence.
func TestQuickUsageWithinCapacity(t *testing.T) {
	f := func(ops []uint16) bool {
		s, err := NewStore(8192)
		if err != nil {
			return false
		}
		for _, op := range ops {
			key := fmt.Sprintf("k%d", op%64)
			switch op % 3 {
			case 0:
				s.Set(key, make([]byte, int(op%512)))
			case 1:
				s.Get(key)
			case 2:
				s.Delete(key)
			}
			if s.UsedBytes() > s.Stats().MaxBytes || s.UsedBytes() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: stats counters are consistent: hits ≤ gets, items = Len.
func TestQuickStatsConsistent(t *testing.T) {
	f := func(ops []uint16) bool {
		s, err := NewStore(4096)
		if err != nil {
			return false
		}
		for _, op := range ops {
			key := fmt.Sprintf("k%d", op%32)
			if op%2 == 0 {
				s.Set(key, make([]byte, 64))
			} else {
				s.Get(key)
			}
		}
		st := s.Stats()
		return st.Hits <= st.Gets && st.Items == s.Len() && st.Hits+st.Misses == st.Gets
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTTLExpiry(t *testing.T) {
	s := mustStore(t, 1<<20)
	// Deterministic clock.
	now := time.Unix(1000, 0)
	s.now = func() time.Time { return now }

	if err := s.SetWithTTL("ephemeral", []byte("v"), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("forever", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("ephemeral"); !ok {
		t.Error("fresh TTL item missing")
	}

	now = now.Add(11 * time.Second)
	if _, ok := s.Get("ephemeral"); ok {
		t.Error("expired item served")
	}
	if _, ok := s.Get("forever"); !ok {
		t.Error("non-expiring item lost")
	}
	// Lazy eviction removed the expired item's bytes.
	if s.Len() != 1 {
		t.Errorf("len = %d, want 1", s.Len())
	}

	// Overwriting resets the expiry.
	if err := s.SetWithTTL("ephemeral", []byte("v2"), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	now = now.Add(5 * time.Second)
	if v, ok := s.Get("ephemeral"); !ok || string(v) != "v2" {
		t.Errorf("refreshed item = %q/%v", v, ok)
	}
}

// BenchmarkStoreOps measures the real LRU store under zipfian load.
func BenchmarkStoreOps(b *testing.B) {
	s, err := NewStore(64 << 20)
	if err != nil {
		b.Fatal(err)
	}
	w, err := NewWorkload(50000, 512, 1.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Warm(s); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := w.Run(s, b.N); err != nil {
		b.Fatal(err)
	}
}
