package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"deflation/internal/vm"
)

// TestManagerClientSuccessesAndRefusals calls the manager's wire through
// ManagerClient: a repeated registration is a success on its second status,
// and each refusal is a StatusError carrying the status and body that
// unwraps to its row's sentinel.
func TestManagerClientSuccessesAndRefusals(t *testing.T) {
	api, err := NewManagerAPI(newCluster(t, 2, BestFit))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)
	agent, _ := newControllerServer(t)
	c := ManagerClient{Base: srv.URL, HTTP: &http.Client{}}
	ctx := context.Background()

	reg := RegisterNodeRequest{Name: "r1", URL: agent.URL}
	for i := 0; i < 2; i++ {
		if resp, err := c.Register(ctx, reg); err != nil || resp.Name != "r1" {
			t.Fatalf("registration %d: %+v, %v", i, resp, err)
		}
	}
	if err := c.Heartbeat(ctx, "r1", CapacitySummary{}); err != nil {
		t.Errorf("heartbeat: %v", err)
	}
	if _, err := c.Launch(ctx, wireSpec("a", vm.LowPriority)); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		call     func() error
		sentinel error
		text     string
	}{
		{func() error { _, err := c.Launch(ctx, wireSpec("a", vm.LowPriority)); return err },
			ErrVMExists, `409 Conflict: cluster: VM already exists: "a"`},
		{func() error { return c.Release(ctx, "ghost") },
			ErrVMNotFound, `404 Not Found: cluster: VM not found: "ghost"`},
		{func() error { return c.Heartbeat(ctx, "ghost", CapacitySummary{}) },
			ErrNodeNotFound, `404 Not Found: cluster: node "ghost" is not managed here`},
		{func() error { _, err := c.Migrate(ctx, MigrateRequest{VM: "a"}); return err },
			nil, `400 Bad Request: cluster: migrate needs vm and dest`},
	} {
		err := tc.call()
		var se *StatusError
		if !errors.As(err, &se) || err.Error() != tc.text {
			t.Errorf("got %v, want a StatusError %q", err, tc.text)
		}
		if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
			t.Errorf("%v does not unwrap to %v", err, tc.sentinel)
		}
		if tc.sentinel == nil && errors.Unwrap(err) != nil {
			t.Errorf("%v unwraps to %v, want no sentinel", err, errors.Unwrap(err))
		}
	}
}
