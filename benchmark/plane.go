package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"deflation/internal/cascade"
	"deflation/internal/cluster"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/shard"
	"deflation/internal/vm"
)

// Span names of the plane workloads: what the client sent and what reached
// each agent's handler.
const (
	spClientLaunch int32 = iota
	spClientRelease
	spClientHeartbeat
	spClientRead
	spAgentState
	spAgentLaunch
	spAgentRelease
	spAgentOther
)

var planeSpanNames = []string{
	"client.launch", "client.release", "client.heartbeat", "client.read",
	"agent.state", "agent.launch", "agent.release", "agent.other",
}

// planeWorkload is one live-plane workload: a journaled federation of manager
// shards and a fleet of agents, all in this process over loopback HTTP,
// prefilled to a fixed resident population before anything is timed.
type planeWorkload struct {
	Shards     int     `json:"shards"`
	Agents     int     `json:"agents"`
	AgentCPUs  float64 `json:"agent_cpus"`
	AgentMemGB float64 `json:"agent_mem_gb"`
	// Population is the resident VM count the plane is prefilled to and the
	// driver then holds: launch cost is linear in it.
	Population int `json:"population"`
	// OpenLoop selects the two-lane scheduled driver; false is one
	// closed-loop client alternating launch and release.
	OpenLoop      bool          `json:"open_loop"`
	LaunchRate    float64       `json:"launch_per_s,omitempty"`
	ReleaseRate   float64       `json:"release_per_s,omitempty"`
	HeartbeatBase time.Duration `json:"heartbeat_base_ns,omitempty"`
	ReadEvery     time.Duration `json:"read_every_ns,omitempty"`
}

var planeWorkloads = map[string]planeWorkload{
	// 78% nominal CPU: nothing is deflated, placement's state round trips
	// are the whole cost of a launch.
	"plane_launch": {Shards: 3, Agents: 12, AgentCPUs: 64, AgentMemGB: 256, Population: 600},
	// 1.3× nominal CPU: every launch deflates neighbours, every release
	// reinflates, beside heartbeats and operator reads.
	"plane_mixed": {Shards: 3, Agents: 12, AgentCPUs: 64, AgentMemGB: 256, Population: 1000, OpenLoop: true,
		LaunchRate: 15, ReleaseRate: 15, HeartbeatBase: 250 * time.Millisecond, ReadEvery: time.Second},
}

// quick shrinks a plane for -quick: population and host size together,
// so the nominal load (and with it deflation or its absence) is unchanged.
func (w planeWorkload) quick() planeWorkload {
	w.Population /= quickScale
	w.AgentCPUs /= quickScale
	w.AgentMemGB /= quickScale
	return w
}

func (w planeWorkload) capacity() restypes.Vector {
	return restypes.V(w.AgentCPUs, w.AgentMemGB*1024, 4000, 4000)
}

// vmSpec is the one VM shape the plane workloads launch: 1 core / 2 GB,
// low priority, deflatable to a quarter.
func vmSpec(name string) cluster.LaunchSpec {
	return cluster.LaunchSpec{
		Name:     name,
		Size:     restypes.V(1, 2048, 50, 50),
		MinSize:  restypes.V(0.25, 512, 12, 12),
		Priority: vm.LowPriority,
		AppKind:  "elastic",
	}
}

// agentTap is the timing and counting middleware the traced run puts in
// front of each agent's handler. While off it only forwards.
type agentTap struct {
	rec        *recorder
	on         atomic.Bool
	onAt       atomic.Int64 // when recording began, ns since rec.t0; 0 = never
	stateBytes atomic.Int64 // response bytes of the recorded state RPCs
}

// enable starts recording. The flag is set before the instant is taken, so
// every agent RPC of a request sent after that instant is recorded.
func (t *agentTap) enable() {
	t.on.Store(true)
	t.onAt.Store(max(t.rec.now(), 1))
}

// recorded reports whether a request sent at the given time had the tap on
// for all of its agent RPCs.
func (t *agentTap) recorded(sent time.Time) bool {
	at := t.onAt.Load()
	return at != 0 && sent.After(t.rec.t0.Add(time.Duration(at)))
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (t *agentTap) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(cw, r)
		end := time.Now()
		name := spAgentOther
		switch {
		case r.Method == http.MethodGet && r.URL.Path == "/v1/state":
			name = spAgentState
			t.stateBytes.Add(cw.n)
		case r.Method == http.MethodPost && r.URL.Path == "/v1/vms":
			name = spAgentLaunch
		case r.Method == http.MethodDelete && strings.HasPrefix(r.URL.Path, "/v1/vms/"):
			name = spAgentRelease
		}
		t.rec.add(name, start, end)
	})
}

// plane is a booted workload: federation, agents, and the client's view.
type plane struct {
	w         planeWorkload
	fed       *shard.Federation
	managers  []string // base URLs, boot order
	shardIDs  []string
	agents    []string // names
	agentURLs []string
	srv       *http.Server
	stateRoot string
	client    *http.Client
	resident  []string // acked, not released, oldest first
}

// bootPlane starts the federation and the agents and registers every agent.
// Agents serve before they are registered: registration reads their
// inventory, and an unreachable agent costs a probe timeout.
func bootPlane(w planeWorkload, tap *agentTap, dir string) (*plane, error) {
	stateRoot, err := os.MkdirTemp(dir, "state-")
	if err != nil {
		return nil, err
	}
	p := &plane{w: w, stateRoot: stateRoot,
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
	for i := 0; i < w.Shards; i++ {
		p.shardIDs = append(p.shardIDs, fmt.Sprintf("shard-%d", i))
	}
	p.fed, err = shard.NewFederation(shard.FederationConfig{
		Shards: p.shardIDs, StateRoot: stateRoot, Policy: cluster.BestFit, Seed: 7,
	})
	if err != nil {
		p.close()
		return nil, err
	}
	p.managers = p.fed.URLs()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.close()
		return nil, err
	}
	mux := http.NewServeMux()
	p.srv = cluster.NewHTTPServer("", mux)
	go p.srv.Serve(ln) // returns when close() closes the server

	// The ring spreads a dozen similar names unevenly (1/5/6 over three
	// shards for bench-node-00..11), which would overcommit one shard at a
	// population the fleet as a whole holds easily. Names are tried in order
	// and kept while their owner is still short of its equal share.
	view, short := p.fed.View(), make(map[string]int)
	for _, id := range p.shardIDs {
		short[id] = w.Agents / w.Shards
	}
	for i := 0; len(p.agents) < w.Agents/w.Shards*w.Shards; i++ {
		name := fmt.Sprintf("bench-node-%03d", i)
		if short[view.Owner(name)] == 0 {
			continue
		}
		short[view.Owner(name)]--
		host, err := hypervisor.NewHost(hypervisor.Config{Name: name, Capacity: w.capacity()})
		if err != nil {
			p.close()
			return nil, err
		}
		api, err := cluster.NewControllerAPI(cluster.NewLocalController(host, cascade.AllLevels(), cluster.ModeDeflation))
		if err != nil {
			p.close()
			return nil, err
		}
		h := api.Handler()
		if tap != nil {
			h = tap.wrap(h)
		}
		mux.Handle("/agents/"+name+"/v1/", http.StripPrefix("/agents/"+name, h))
		p.agents = append(p.agents, name)
		p.agentURLs = append(p.agentURLs, "http://"+ln.Addr().String()+"/agents/"+name)
	}

	for i, name := range p.agents {
		body, _ := json.Marshal(cluster.RegisterNodeRequest{Name: name, URL: p.agentURLs[i]})
		if code, err := p.do(http.MethodPost, p.managers[i%len(p.managers)]+"/v1/nodes", body, nil); err != nil || code >= 300 {
			p.close()
			return nil, fmt.Errorf("registering %s: status %d: %v", name, code, err)
		}
	}
	return p, nil
}

// prefill launches VMs until Population are resident.
func (p *plane) prefill() error {
	for i := 0; len(p.resident) < p.w.Population; i++ {
		name := fmt.Sprintf("resident-%05d", i)
		body, _ := json.Marshal(vmSpec(name))
		code, err := p.do(http.MethodPost, p.managers[i%len(p.managers)]+"/v1/vms", body, nil)
		if err != nil || code >= 300 {
			return fmt.Errorf("prefill launch %s: status %d: %v", name, code, err)
		}
		p.resident = append(p.resident, name)
	}
	return nil
}

// do sends one request, following the routers' 307s, and drains the reply
// (into out when given). Any transport error or non-2xx status is a failure
// to the caller.
func (p *plane) do(method, url string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// owner is the index in p.managers of the shard that owns key.
func (p *plane) owner(key string) int {
	id := p.fed.View().Owner(key)
	for i, s := range p.shardIDs {
		if s == id {
			return i
		}
	}
	return -1
}

// close stops every server the plane started and removes its journals; a nil
// plane has none.
func (p *plane) close() {
	if p == nil {
		return
	}
	if p.fed != nil {
		p.fed.Close()
	}
	if p.srv != nil {
		p.srv.Close()
	}
	p.client.CloseIdleConnections()
	os.RemoveAll(p.stateRoot)
}

// journalTotals sums the shards' journals: records appended by this process,
// records and bytes in the live logs (for the mean record size).
func (p *plane) journalTotals() (appended, logRecords uint64, logBytes int64, err error) {
	for i, base := range p.managers {
		var st cluster.ManagerStateResponse
		if _, err := p.do(http.MethodGet, base+"/v1/state", nil, &st); err != nil {
			return 0, 0, 0, err
		}
		if st.Journal == nil {
			return 0, 0, 0, fmt.Errorf("shard %s is not journaled", p.shardIDs[i])
		}
		appended += st.Journal.Appended
		logRecords += st.Journal.Seq - st.Journal.SnapshotSeq
		fi, err := os.Stat(filepath.Join(st.Journal.Dir, "journal.log"))
		if err != nil {
			return 0, 0, 0, err
		}
		logBytes += fi.Size()
	}
	return appended, logRecords, logBytes, nil
}

// sweepInput fetches what the post-run sweep checks: each agent's own state
// and each shard's journal-backed placement map.
func (p *plane) sweepInput() (sweepInput, error) {
	in := sweepInput{Resident: p.resident, Capacity: p.w.capacity()}
	for _, url := range p.agentURLs {
		var st cluster.NodeState
		if _, err := p.do(http.MethodGet, url+"/v1/state", nil, &st); err != nil {
			return in, err
		}
		in.Agents = append(in.Agents, st)
	}
	for _, base := range p.managers {
		var st cluster.ManagerStateResponse
		if _, err := p.do(http.MethodGet, base+"/v1/state", nil, &st); err != nil {
			return in, err
		}
		in.Shards = append(in.Shards, st.Placements)
	}
	return in, nil
}
