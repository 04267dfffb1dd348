// Package agent implements the application deflation agent of §5: a REST
// endpoint through which the local deflation controller sends deflation
// vectors to applications and receives the amount of voluntarily
// relinquished resources. It also provides the client side (RemoteApp),
// which lets an application running behind HTTP participate in cascade
// deflation as a vm.Application.
package agent

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/telemetry"
	"deflation/internal/vm"
)

// DeflateRequest is the wire form of a deflation vector sent to an agent.
type DeflateRequest struct {
	Target restypes.Vector `json:"target"`
}

// DeflateResponse reports what the application relinquished.
type DeflateResponse struct {
	Relinquished restypes.Vector `json:"relinquished"`
	LatencyMS    float64         `json:"latency_ms"`
}

// ReinflateRequest notifies the application of restored resources.
type ReinflateRequest struct {
	Env hypervisor.Env `json:"env"`
}

// StatusResponse describes the application's current state.
type StatusResponse struct {
	Name    string  `json:"name"`
	RSSMB   float64 `json:"rss_mb"`
	CacheMB float64 `json:"cache_mb"`
}

// Server exposes a vm.Application as a deflation agent over HTTP. All
// handlers are safe for concurrent use; calls into the application are
// serialized.
type Server struct {
	mu  sync.Mutex
	app vm.Application

	sink *telemetry.Sink // nil = no instrumentation
	tel  struct {
		deflates     *telemetry.Counter
		reinflates   *telemetry.Counter
		relinquished [restypes.NumKinds]*telemetry.Counter
	}
}

// NewServer wraps app.
func NewServer(app vm.Application) (*Server, error) {
	if app == nil {
		return nil, fmt.Errorf("agent: nil application")
	}
	return &Server{app: app}, nil
}

// SetTelemetry instruments the agent: deflation/reinflation request
// counters and relinquished-amount counters per resource dimension. The
// sink's introspection endpoints (/metrics, /debug/trace, /debug/pprof)
// are mounted by Handler. A nil sink detaches.
func (s *Server) SetTelemetry(sink *telemetry.Sink) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sink = sink
	if sink == nil {
		return
	}
	r := sink.Registry
	s.tel.deflates = r.Counter("deflation_agent_deflates_total",
		"deflation vectors received from the local controller", nil)
	s.tel.reinflates = r.Counter("deflation_agent_reinflates_total",
		"reinflation notifications received", nil)
	for _, k := range restypes.Kinds() {
		s.tel.relinquished[k] = r.Counter("deflation_agent_relinquished_total",
			"resources voluntarily relinquished by the application (cores, MB, MB/s)",
			telemetry.Labels{"resource": k.String()})
	}
}

// Handler returns the agent's HTTP routes:
//
//	POST /deflate   — body DeflateRequest, response DeflateResponse
//	POST /reinflate — body ReinflateRequest
//	GET  /status    — response StatusResponse
//
// When a telemetry sink is set, the sink's introspection endpoints
// (/metrics, /debug/trace, /debug/pprof) are mounted too.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /deflate", s.handleDeflate)
	mux.HandleFunc("POST /reinflate", s.handleReinflate)
	mux.HandleFunc("GET /status", s.handleStatus)
	s.mu.Lock()
	sink := s.sink
	s.mu.Unlock()
	if sink != nil {
		sink.Attach(mux)
	}
	return mux
}

func (s *Server) handleDeflate(w http.ResponseWriter, r *http.Request) {
	var req DeflateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "agent: bad deflate request: "+err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	rel, lat := s.app.SelfDeflate(req.Target)
	if s.sink != nil {
		s.tel.deflates.Inc()
		for _, k := range restypes.Kinds() {
			s.tel.relinquished[k].Add(rel.At(k))
		}
	}
	s.mu.Unlock()
	writeJSON(w, DeflateResponse{Relinquished: rel, LatencyMS: float64(lat) / float64(time.Millisecond)})
}

func (s *Server) handleReinflate(w http.ResponseWriter, r *http.Request) {
	var req ReinflateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "agent: bad reinflate request: "+err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	s.app.Reinflate(req.Env)
	if s.sink != nil {
		s.tel.reinflates.Inc()
	}
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	rss, cache := s.app.Footprint()
	name := s.app.Name()
	s.mu.Unlock()
	writeJSON(w, StatusResponse{Name: name, RSSMB: rss, CacheMB: cache})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// RemoteApp is a vm.Application proxy that forwards deflation requests to a
// remote agent endpoint. Failures are treated as the application declining
// to deflate — the safe interpretation under cascade deflation, where lower
// levels pick up the slack (§3.2).
type RemoteApp struct {
	baseURL string
	client  *http.Client

	mu         sync.Mutex
	lastStatus StatusResponse
	haveStatus bool
}

// NewRemoteApp points a proxy at an agent's base URL (e.g.
// "http://127.0.0.1:7070").
func NewRemoteApp(baseURL string) (*RemoteApp, error) {
	if baseURL == "" {
		return nil, fmt.Errorf("agent: empty base URL")
	}
	return &RemoteApp{
		baseURL: baseURL,
		client:  &http.Client{Timeout: 10 * time.Second},
	}, nil
}

// Name implements vm.Application, using the last known status.
func (a *RemoteApp) Name() string {
	st, err := a.Status()
	if err != nil {
		return "remote-app"
	}
	return st.Name
}

// Status fetches (and caches) the remote application's status. When the
// fetch fails — the agent is unreachable, answers other than 200, or sends a
// body that does not decode — it returns the last status it saw, if any.
func (a *RemoteApp) Status() (StatusResponse, error) {
	st, err := a.fetchStatus()
	a.mu.Lock()
	defer a.mu.Unlock()
	if err != nil {
		if a.haveStatus {
			return a.lastStatus, nil
		}
		return StatusResponse{}, err
	}
	a.lastStatus, a.haveStatus = st, true
	return st, nil
}

func (a *RemoteApp) fetchStatus() (StatusResponse, error) {
	var st StatusResponse
	resp, err := a.client.Get(a.baseURL + "/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("agent: status: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// Footprint implements vm.Application from the agent's status endpoint.
func (a *RemoteApp) Footprint() (float64, float64) {
	st, err := a.Status()
	if err != nil {
		return 0, 0
	}
	return st.RSSMB, st.CacheMB
}

// SelfDeflate implements vm.Application by POSTing the deflation vector to
// the agent. On any error the application is treated as having relinquished
// nothing.
func (a *RemoteApp) SelfDeflate(target restypes.Vector) (restypes.Vector, time.Duration) {
	body, err := json.Marshal(DeflateRequest{Target: target})
	if err != nil {
		return restypes.Vector{}, 0
	}
	resp, err := a.client.Post(a.baseURL+"/deflate", "application/json", bytes.NewReader(body))
	if err != nil {
		return restypes.Vector{}, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return restypes.Vector{}, 0
	}
	var dr DeflateResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		return restypes.Vector{}, 0
	}
	return dr.Relinquished, time.Duration(dr.LatencyMS * float64(time.Millisecond))
}

// Reinflate implements vm.Application by POSTing the new environment.
func (a *RemoteApp) Reinflate(env hypervisor.Env) {
	body, err := json.Marshal(ReinflateRequest{Env: env})
	if err != nil {
		return
	}
	resp, err := a.client.Post(a.baseURL+"/reinflate", "application/json", bytes.NewReader(body))
	if err != nil {
		return
	}
	resp.Body.Close()
}

// Throughput implements vm.Application. The remote protocol does not carry
// a performance model; the proxy reports 1 unless the VM was OOM-killed.
// Local performance accounting should wrap RemoteApp if needed.
func (a *RemoteApp) Throughput(env hypervisor.Env) float64 {
	if env.OOMKilled {
		return 0
	}
	return 1
}
