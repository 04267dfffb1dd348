package cluster

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deflation/internal/restypes"
	"deflation/internal/vm"
)

// fastPolicy keeps failure-path tests quick; backoff sleeps are captured via
// the sleep seam rather than actually slept.
func fastPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, OpTimeout: 2 * time.Second}
}

// recordSleeps swaps the node's sleep function for a recorder so backoff
// choices are observable and tests don't wait.
func recordSleeps(n *RemoteNode) *[]time.Duration {
	var mu sync.Mutex
	var sleeps []time.Duration
	n.sleep = func(d time.Duration) {
		mu.Lock()
		sleeps = append(sleeps, d)
		mu.Unlock()
	}
	return &sleeps
}

// retries and lastTransportErr read a RemoteNode's lifetime retry count and
// its most recent transport failure.
func retries(n *RemoteNode) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.retries
}

func lastTransportErr(n *RemoteNode) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastErr
}

func TestStateRetriesOn5xxWithBackoff(t *testing.T) {
	_, ctrl := newControllerServer(t)
	api, err := NewControllerAPI(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	base := api.Handler()
	var failing atomic.Bool
	var fails atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() && fails.Add(1) <= 2 {
			http.Error(w, "injected", http.StatusInternalServerError)
			return
		}
		base.ServeHTTP(w, r)
	}))
	defer srv.Close()

	node, err := NewRemoteNodeWithPolicy(srv.URL, fastPolicy())
	if err != nil {
		t.Fatal(err)
	}
	sleeps := recordSleeps(node)

	failing.Store(true)
	if _, err := node.State(); err != nil {
		t.Fatalf("State after two 5xxs: %v", err)
	}
	if got := retries(node); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if len(*sleeps) != 2 {
		t.Fatalf("backoff sleeps = %v, want 2 entries", *sleeps)
	}
	// Full jitter: each sleep is uniform over (0, ceiling] where the
	// ceilings double — 10ms then 20ms.
	if d := (*sleeps)[0]; d <= 0 || d > 10*time.Millisecond {
		t.Errorf("first backoff = %v, want in (0, 10ms]", d)
	}
	if d := (*sleeps)[1]; d <= 0 || d > 20*time.Millisecond {
		t.Errorf("second backoff = %v, want in (0, 20ms]", d)
	}
}

func TestRetryExhaustionReturnsLastError(t *testing.T) {
	_, ctrl := newControllerServer(t)
	api, err := NewControllerAPI(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	base := api.Handler()
	var failing atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "injected", http.StatusInternalServerError)
			return
		}
		base.ServeHTTP(w, r)
	}))
	defer srv.Close()

	node, err := NewRemoteNodeWithPolicy(srv.URL, fastPolicy())
	if err != nil {
		t.Fatal(err)
	}
	recordSleeps(node)

	failing.Store(true)
	if _, err := node.State(); err == nil {
		t.Fatal("State succeeded against a permanently failing server")
	}
	// MaxAttempts=4 → 3 retries beyond the first attempt.
	if got := retries(node); got != 3 {
		t.Errorf("retries = %d, want 3", got)
	}
}

func TestTimeoutIsRetriedAsTransportFailure(t *testing.T) {
	_, ctrl := newControllerServer(t)
	api, err := NewControllerAPI(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	base := api.Handler()
	var hangOnce atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hangOnce.CompareAndSwap(true, false) {
			time.Sleep(300 * time.Millisecond) // beyond OpTimeout
		}
		base.ServeHTTP(w, r)
	}))
	defer srv.Close()

	policy := fastPolicy()
	policy.OpTimeout = 50 * time.Millisecond
	node, err := NewRemoteNodeWithPolicy(srv.URL, policy)
	if err != nil {
		t.Fatal(err)
	}
	recordSleeps(node)

	hangOnce.Store(true)
	if _, err := node.State(); err != nil {
		t.Fatalf("State after one hung attempt: %v", err)
	}
	if retries(node) == 0 {
		t.Error("hung attempt was not retried")
	}
	if lastTransportErr(node) == nil {
		t.Error("timeout not recorded as a transport error")
	}
}

func TestReleaseSurvivesDroppedResponse(t *testing.T) {
	// The release applies server-side, but the connection drops before the
	// response reaches the client. The retry sees 404 — which, after a
	// transport failure, means the earlier attempt succeeded.
	_, ctrl := newControllerServer(t)
	api, err := NewControllerAPI(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	base := api.Handler()
	var dropNext atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodDelete && dropNext.CompareAndSwap(true, false) {
			rec := httptest.NewRecorder()
			base.ServeHTTP(rec, r)      // the release applies...
			panic(http.ErrAbortHandler) // ...but the response is lost
		}
		base.ServeHTTP(w, r)
	}))
	defer srv.Close()

	node, err := NewRemoteNodeWithPolicy(srv.URL, fastPolicy())
	if err != nil {
		t.Fatal(err)
	}
	recordSleeps(node)
	if _, err := node.Launch(wireSpec("a", vm.LowPriority)); err != nil {
		t.Fatal(err)
	}

	dropNext.Store(true)
	if err := node.Release("a"); err != nil {
		t.Fatalf("Release with dropped response: %v", err)
	}
	if ok, _ := ctrl.Has("a"); ok {
		t.Error("VM survived release")
	}
	// A genuinely missing VM still 404s when no transport failure preceded.
	if err := node.Release("ghost"); !errors.Is(err, ErrVMNotFound) {
		t.Errorf("release of missing VM = %v, want ErrVMNotFound", err)
	}
}

func TestDeflateIdempotencyKeyPreventsDoubleApply(t *testing.T) {
	// First deflate applies but its response is dropped; the retry carries
	// the same Idempotency-Key, so the server replays the recorded outcome
	// instead of running the cascade again.
	_, ctrl := newControllerServer(t)
	api, err := NewControllerAPI(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	base := api.Handler()
	var dropNext atomic.Bool
	var applied, replayed atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/deflate") {
			rec := httptest.NewRecorder()
			base.ServeHTTP(rec, r)
			if rec.Header().Get("Idempotency-Replayed") == "true" {
				replayed.Add(1)
			} else if rec.Code == http.StatusOK {
				applied.Add(1)
			}
			if dropNext.CompareAndSwap(true, false) {
				panic(http.ErrAbortHandler) // response lost after applying
			}
			for k, vs := range rec.Header() {
				w.Header()[k] = vs
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
			return
		}
		base.ServeHTTP(w, r)
	}))
	defer srv.Close()

	node, err := NewRemoteNodeWithPolicy(srv.URL, fastPolicy())
	if err != nil {
		t.Fatal(err)
	}
	recordSleeps(node)
	if _, err := node.Launch(wireSpec("a", vm.LowPriority)); err != nil {
		t.Fatal(err)
	}

	dropNext.Store(true)
	target := restypes.V(2, 8192, 50, 50)
	resp, err := node.Deflate("a", target)
	if err != nil {
		t.Fatalf("Deflate with dropped response: %v", err)
	}
	if applied.Load() != 1 {
		t.Errorf("cascade applied %d times, want exactly 1", applied.Load())
	}
	if replayed.Load() != 1 {
		t.Errorf("replayed %d times, want exactly 1", replayed.Load())
	}
	v, err := ctrl.VM("a")
	if err != nil {
		t.Fatal(err)
	}
	if resp.NewAllocation != v.Allocation() {
		t.Errorf("replayed allocation %v != actual %v", resp.NewAllocation, v.Allocation())
	}
}

func TestLaunchNeverRetries(t *testing.T) {
	_, ctrl := newControllerServer(t)
	api, err := NewControllerAPI(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	base := api.Handler()
	var launchAttempts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/vms" {
			launchAttempts.Add(1)
			http.Error(w, "injected", http.StatusInternalServerError)
			return
		}
		base.ServeHTTP(w, r)
	}))
	defer srv.Close()

	node, err := NewRemoteNodeWithPolicy(srv.URL, fastPolicy())
	if err != nil {
		t.Fatal(err)
	}
	recordSleeps(node)
	if _, err := node.Launch(wireSpec("a", vm.LowPriority)); err == nil {
		t.Fatal("launch against failing server succeeded")
	}
	if got := launchAttempts.Load(); got != 1 {
		t.Errorf("launch attempted %d times, want exactly 1 (not idempotent)", got)
	}
	if retries(node) != 0 {
		t.Errorf("launch consumed %d retries", retries(node))
	}
}

func TestHasDistinguishesUnreachableFromMissing(t *testing.T) {
	srv, _ := newControllerServer(t)
	node, err := NewRemoteNodeWithPolicy(srv.URL, fastPolicy())
	if err != nil {
		t.Fatal(err)
	}
	recordSleeps(node)

	if ok, err := node.Has("nope"); ok || err != nil {
		t.Errorf("missing VM: Has = (%v, %v), want (false, nil)", ok, err)
	}
	srv.Close()
	if _, err := node.Has("nope"); err == nil {
		t.Error("unreachable server: Has returned nil error")
	}
	if err := node.Ping(); err == nil {
		t.Error("unreachable server: Ping returned nil error")
	}
}
