package faults

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestZeroConfigDisabled(t *testing.T) {
	var c Config
	if c.Enabled() {
		t.Error("zero config reports enabled")
	}
	in := New(c)
	if _, ok := in.NextCrash("n0"); ok {
		t.Error("crash drawn with crashes disabled")
	}
	if o := in.AgentFault(); o.Fail || o.Hang != 0 {
		t.Errorf("agent fault with zero config: %+v", o)
	}
	if o := in.OSFault(); o.Fail {
		t.Errorf("os fault with zero config: %+v", o)
	}
	if in.HTTPFault() {
		t.Error("http fault with zero config")
	}
}

func TestDeterministicStreams(t *testing.T) {
	cfg := Config{
		Seed: 7, CrashMTBF: time.Hour,
		AgentFailProb: 0.3, AgentHangProb: 0.3,
		OSFailProb:    0.5,
		HTTPErrorProb: 0.2,
	}
	draw := func() (crashes []time.Duration, agents []LevelOutcome, oss []UnplugOutcome, https []bool) {
		in := New(cfg)
		for i := 0; i < 50; i++ {
			d, _ := in.NextCrash("node-a")
			crashes = append(crashes, d)
			agents = append(agents, in.AgentFault())
			oss = append(oss, in.OSFault())
			https = append(https, in.HTTPFault())
		}
		return
	}
	c1, a1, o1, h1 := draw()
	c2, a2, o2, h2 := draw()
	for i := range c1 {
		if c1[i] != c2[i] || a1[i] != a2[i] || o1[i] != o2[i] || h1[i] != h2[i] {
			t.Fatalf("draw %d differs across identical seeds", i)
		}
	}
}

func TestStreamsAreIndependent(t *testing.T) {
	// Drawing HTTP faults must not perturb the node-crash schedule.
	cfg := Config{Seed: 11, CrashMTBF: time.Hour, HTTPErrorProb: 0.5}
	a := New(cfg)
	b := New(cfg)
	for i := 0; i < 100; i++ {
		b.HTTPFault() // extra draws on an unrelated stream
	}
	for i := 0; i < 20; i++ {
		da, _ := a.NextCrash("n")
		db, _ := b.NextCrash("n")
		if da != db {
			t.Fatalf("crash schedule perturbed by http draws at %d: %v vs %v", i, da, db)
		}
	}
}

func TestPerNodeCrashStreams(t *testing.T) {
	in := New(Config{Seed: 3, CrashMTBF: time.Hour})
	a, _ := in.NextCrash("node-a")
	b, _ := in.NextCrash("node-b")
	if a == b {
		t.Error("different nodes drew identical crash times (shared stream?)")
	}
}

func TestAgentAndOSFaultRates(t *testing.T) {
	in := New(Config{Seed: 5, AgentFailProb: 1, OSFailProb: 1})
	for i := 0; i < 10; i++ {
		if !in.AgentFault().Fail {
			t.Fatal("AgentFailProb=1 did not fail")
		}
		o := in.OSFault()
		if !o.Fail {
			t.Fatal("OSFailProb=1 did not fail")
		}
		if o.Fraction < 0 || o.Fraction > 0.5 {
			t.Fatalf("partial fraction %g outside [0, 0.5]", o.Fraction)
		}
	}
}

// TestHTTPFaultStreamPinned pins which requests fail at one seed, so a
// change to how HTTPFault draws cannot silently move a seed's schedule
// (deflload -agent-error-prob runs are reproduced from their seed).
func TestHTTPFaultStreamPinned(t *testing.T) {
	const want = ".....xx....x.x....x..xx.xx...x......x..x.x....xx"
	in := New(Config{Seed: 7, HTTPErrorProb: 0.3})
	got := make([]byte, len(want))
	for i := range got {
		got[i] = '.'
		if in.HTTPFault() {
			got[i] = 'x'
		}
	}
	if string(got) != want {
		t.Errorf("failed requests\n got %s\nwant %s", got, want)
	}
}

func TestMiddlewareInjectsErrors(t *testing.T) {
	in := New(Config{Seed: 1, HTTPErrorProb: 0.5})
	srv := httptest.NewServer(Middleware(in, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})))
	defer srv.Close()

	errors, served := 0, 0
	for i := 0; i < 40; i++ {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusInternalServerError {
			errors++
		} else {
			served++
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if errors == 0 || served == 0 {
		t.Errorf("middleware injected %d errors and served %d, want both > 0", errors, served)
	}
}
