package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"deflation/internal/cluster"
)

// opKind is what a request does; its value is also the client span name.
type opKind = int32

// op is one scheduled request of the open-loop driver.
type op struct {
	Due   time.Duration // offset from the start of the window
	Kind  opKind
	Agent int // heartbeats: index of the agent reporting
}

// sample is one request as the driver saw it. Raw times are kept; nothing is
// rounded or bucketed before the percentiles are taken.
type sample struct {
	Kind   opKind
	Due    time.Time // open loop: when it was due; closed loop: when it was sent
	Sent   time.Time
	Done   time.Time
	OK     bool
	Direct bool // sent to the shard that owns the key (no router hop)
}

// latency is timed from the due time, so a stall counts against every
// request it delays, not only the one it hit.
func (s sample) latency() time.Duration { return s.Done.Sub(s.Due) }
func (s sample) lag() time.Duration     { return s.Sent.Sub(s.Due) }

// streamSeed derives an independent, reproducible stream from the run seed.
func streamSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d#%s", seed, stream)
	return int64(h.Sum64())
}

// arrivals places exactly round(rate·window) arrivals uniformly at random in
// the window: a Poisson process conditioned on its count, so every seed
// offers the same number of requests and only their timing differs.
func arrivals(rng *rand.Rand, rate float64, window time.Duration, kind opKind) []op {
	n := int(rate*window.Seconds() + 0.5)
	out := make([]op, n)
	for i := range out {
		out[i] = op{Due: time.Duration(rng.Int63n(int64(window))), Kind: kind}
	}
	return out
}

// mixedSchedule generates plane_mixed's two lanes from the seed. Lane A:
// launches and releases on independent schedules. Lane B: one full-jitter
// heartbeat stream per agent and a fixed-cadence operator read.
func mixedSchedule(seed int64, w planeWorkload, window time.Duration) (laneA, laneB []op) {
	laneA = append(arrivals(rand.New(rand.NewSource(streamSeed(seed, "launch"))), w.LaunchRate, window, spClientLaunch),
		arrivals(rand.New(rand.NewSource(streamSeed(seed, "release"))), w.ReleaseRate, window, spClientRelease)...)
	for a := 0; a < w.Agents; a++ {
		rng := rand.New(rand.NewSource(streamSeed(seed, fmt.Sprintf("heartbeat-%d", a))))
		for due := cluster.HeartbeatInterval(rng, w.HeartbeatBase); due < window; due += cluster.HeartbeatInterval(rng, w.HeartbeatBase) {
			laneB = append(laneB, op{Due: due, Kind: spClientHeartbeat, Agent: a})
		}
	}
	phase := time.Duration(rand.New(rand.NewSource(streamSeed(seed, "read"))).Int63n(int64(w.ReadEvery)))
	for due := phase; due < window; due += w.ReadEvery {
		laneB = append(laneB, op{Due: due, Kind: spClientRead})
	}
	for _, lane := range [][]op{laneA, laneB} {
		sort.SliceStable(lane, func(i, j int) bool { return lane[i].Due < lane[j].Due })
	}
	return laneA, laneB
}

// driver sends the workload's requests. One lane is one goroutine that waits
// for each reply before its next request; there are at most two.
type driver struct {
	p    *plane
	seed int64

	// Lane A only: the launch sequence and the resident FIFO.
	launched int
}

// send issues one request through the manager picked round-robin by turn and
// reports what happened to it. A zero due time means "due now" (closed loop).
func (d *driver) send(o op, turn int, due time.Time) sample {
	p := d.p
	mgr := turn % len(p.managers)
	var (
		method, path, key string
		body              []byte
		out               any
	)
	switch o.Kind {
	case spClientLaunch:
		key = fmt.Sprintf("s%d-vm-%06d", d.seed, d.launched)
		d.launched++
		method, path = http.MethodPost, "/v1/vms"
		body, _ = json.Marshal(vmSpec(key))
	case spClientRelease:
		key = p.resident[0]
		method, path = http.MethodDelete, "/v1/vms/"+key
	case spClientHeartbeat:
		key = p.agents[o.Agent]
		method, path = http.MethodPost, "/v1/nodes/"+key+"/heartbeat"
	case spClientRead:
		method, path, out = http.MethodGet, "/v1/cluster", new(cluster.ClusterState)
	}
	s := sample{Kind: o.Kind, Due: due, Direct: key == "" || p.owner(key) == mgr}
	s.Sent = time.Now()
	code, err := p.do(method, p.managers[mgr]+path, body, out)
	s.Done = time.Now()
	s.OK = err == nil && code < 300
	if due.IsZero() {
		s.Due = s.Sent
	}
	if s.OK && o.Kind == spClientLaunch {
		p.resident = append(p.resident, key)
	}
	if s.OK && o.Kind == spClientRelease {
		p.resident = p.resident[1:]
	}
	return s
}

// closedLoop is plane_launch's client: launch a new VM, release the oldest,
// each sent when the previous reply arrived, until the window ends.
func (d *driver) closedLoop(window time.Duration) []sample {
	var out []sample
	end := time.Now().Add(window)
	for turn := 0; time.Now().Before(end); turn += 2 {
		out = append(out,
			d.send(op{Kind: spClientLaunch}, turn, time.Time{}),
			d.send(op{Kind: spClientRelease}, turn+1, time.Time{}))
	}
	return out
}

// openLoop runs the two lanes of a schedule to completion. A request is sent
// at its due time or, when the lane is still waiting for a reply, as soon
// as that arrives; it is timed from its due time either way.
func (d *driver) openLoop(laneA, laneB []op) []sample {
	start := time.Now()
	lanes := [][]op{laneA, laneB}
	out := make([][]sample, len(lanes))
	var wg sync.WaitGroup
	for i, lane := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = make([]sample, 0, len(lane))
			for turn, o := range lane {
				due := start.Add(o.Due)
				time.Sleep(time.Until(due))
				out[i] = append(out[i], d.send(o, turn, due))
			}
		}()
	}
	wg.Wait()
	return append(out[0], out[1]...)
}
