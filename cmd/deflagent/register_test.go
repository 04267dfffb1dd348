package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"deflation/internal/cluster"
)

// TestRegistrationRetriesBeatsAndReregisters runs the registration loop
// against a manager that refuses the first two registrations and answers
// the second heartbeat 404: the agent retries until it is registered,
// every heartbeat carries the capacity summary of the moment, and the 404
// costs exactly one re-registration.
func TestRegistrationRetriesBeatsAndReregisters(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var seen []string // what the manager received, in order
	registers, beats := 0, 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		var req cluster.RegisterNodeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req != (cluster.RegisterNodeRequest{Name: "s1", URL: "http://s1"}) {
			t.Errorf("registration %+v (%v)", req, err)
		}
		mu.Lock()
		defer mu.Unlock()
		registers++
		if registers <= 2 {
			seen = append(seen, "register 503")
			http.Error(w, "journal busy", http.StatusServiceUnavailable)
			return
		}
		seen = append(seen, "register 201")
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintln(w, `{"name":"s1"}`)
	})
	mux.HandleFunc("POST /v1/nodes/s1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var sum cluster.CapacitySummary
		if err := json.NewDecoder(r.Body).Decode(&sum); err != nil {
			t.Errorf("heartbeat body: %v", err)
		}
		mu.Lock()
		defer mu.Unlock()
		beats++
		if beats == 2 {
			seen = append(seen, fmt.Sprintf("heartbeat gen=%d 404", sum.Generation))
			http.Error(w, `cluster: node "s1" is not managed here`, http.StatusNotFound)
			return
		}
		seen = append(seen, fmt.Sprintf("heartbeat gen=%d", sum.Generation))
		if beats == 4 {
			cancel()
		}
		w.WriteHeader(http.StatusNoContent)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	gen := uint64(0)
	summary := func() cluster.CapacitySummary { // called only by the loop's goroutine
		gen++
		return cluster.CapacitySummary{Instance: "i", Generation: gen, Mode: "deflation"}
	}
	done := make(chan struct{})
	go func() {
		runRegistration(ctx, srv.URL, "s1", "http://s1", time.Millisecond, 1, summary)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("registration loop did not stop when its context ended")
	}
	want := []string{"register 503", "register 503", "register 201",
		"heartbeat gen=1", "heartbeat gen=2 404", "register 201", "heartbeat gen=3", "heartbeat gen=4"}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(seen, want) {
		t.Errorf("manager saw %q, want %q", seen, want)
	}
}
