// Command deflctl is the operator CLI for the deflated cluster manager.
//
// Usage:
//
//	deflctl -manager http://localhost:7000 launch -name web-1 -cpus 4 -mem-gb 16 -app memcached-aware
//	deflctl -manager http://localhost:7000 launch -name batch-1 -app kcompile -priority low -min-frac 0.25
//	deflctl -manager http://localhost:7000 release -name web-1
//	deflctl -manager http://localhost:7000 migrate -name batch-1 -dest node-2
//	deflctl -manager http://localhost:7000 status -servers
//	deflctl -manager http://localhost:7000 state
//	deflctl -manager http://localhost:7000 metrics
//	deflctl metrics -node http://10.0.0.1:7070
//	deflctl trace -node http://10.0.0.1:7070 -n 20
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"deflation/internal/cluster"
	"deflation/internal/restypes"
	"deflation/internal/telemetry"
	"deflation/internal/vm"
)

// client is the shared HTTP client for every subcommand. The explicit
// timeout means a wedged daemon fails the CLI fast instead of hanging it
// forever (http.DefaultClient has no timeout at all).
var client = &http.Client{Timeout: 15 * time.Second}

func main() {
	manager := flag.String("manager", "http://localhost:7000", "manager base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
	}
	var err error
	switch args[0] {
	case "launch":
		err = launch(*manager, args[1:])
	case "release":
		err = release(*manager, args[1:])
	case "migrate":
		err = migrate(*manager, args[1:])
	case "status":
		err = status(*manager, args[1:])
	case "state":
		err = state(*manager, args[1:])
	case "metrics":
		err = metrics(*manager, args[1:])
	case "trace":
		err = traceCmd(*manager, args[1:])
	case "shardmap":
		err = shardmap(*manager, args[1:])
	case "adopt":
		err = adopt(*manager, args[1:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "deflctl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: deflctl [-manager URL] <command> [flags]

commands:
  launch  -name NAME [-cpus N] [-mem-gb N] [-app KIND] [-priority low|high] [-min-frac F] [-warm]
  release -name NAME
  migrate -name NAME -dest NODE   live-migrate a VM to the named server
  status  [-servers]
  state   [-json]                dump durable state: role/epoch, placements, journal seq, replication lag
  metrics [-node URL] [-raw]     scrape and pretty-print a node's metrics registry
  trace   [-node URL] [-n K]     show the last K cascade decisions
  shardmap [-json] [-key NAME]   show a federated manager's shard map (and resolve a key)
  adopt   -shard ID              have this manager adopt a dead peer shard's journal`)
	os.Exit(2)
}

func launch(manager string, args []string) error {
	fs := flag.NewFlagSet("launch", flag.ExitOnError)
	name := fs.String("name", "", "VM name (required)")
	cpus := fs.Float64("cpus", 4, "vCPUs")
	memGB := fs.Float64("mem-gb", 16, "memory (GB)")
	diskMBps := fs.Float64("disk-mbps", 400, "disk bandwidth (MB/s)")
	netMBps := fs.Float64("net-mbps", 1250, "network bandwidth (MB/s)")
	app := fs.String("app", "elastic", "application kind (see cluster.AppKinds)")
	priority := fs.String("priority", "low", "low (deflatable) or high")
	minFrac := fs.Float64("min-frac", 0, "minimum size as a fraction of nominal")
	warm := fs.Bool("warm", true, "mark the guest long-running (memory host-resident)")
	sub := fs.String("substrate", "", "pin to a substrate kind: hypervisor or container (default: any)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("launch: -name is required")
	}
	size := restypes.V(*cpus, *memGB*1024, *diskMBps, *netMBps)
	spec := cluster.LaunchSpec{
		Name:      *name,
		Size:      size,
		MinSize:   size.Scale(*minFrac),
		AppKind:   *app,
		Warm:      *warm,
		Substrate: *sub,
	}
	if *priority == "high" {
		spec.Priority = vm.HighPriority
		spec.MinSize = restypes.Vector{}
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	resp, err := client.Post(manager+"/v1/vms", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return httpError("launch", resp)
	}
	var lr cluster.LaunchResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		return err
	}
	fmt.Printf("launched %s on %s", *name, lr.Server)
	if lr.Report.Deflations > 0 {
		fmt.Printf(" (deflated %d VMs)", lr.Report.Deflations)
	}
	if len(lr.Report.Preempted) > 0 {
		fmt.Printf(" (preempted: %v)", lr.Report.Preempted)
	}
	fmt.Println()
	return nil
}

func release(manager string, args []string) error {
	fs := flag.NewFlagSet("release", flag.ExitOnError)
	name := fs.String("name", "", "VM name (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("release: -name is required")
	}
	req, err := http.NewRequest(http.MethodDelete, manager+"/v1/vms/"+*name, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return httpError("release", resp)
	}
	fmt.Printf("released %s\n", *name)
	return nil
}

// migrate live-migrates a VM to a named destination server. On failure the
// VM keeps running on its source (pre-copy rolls back cleanly), so the error
// path is safe to retry against a different destination.
func migrate(manager string, args []string) error {
	fs := flag.NewFlagSet("migrate", flag.ExitOnError)
	name := fs.String("name", "", "VM name (required)")
	dest := fs.String("dest", "", "destination server name (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" || *dest == "" {
		return fmt.Errorf("migrate: -name and -dest are required")
	}
	body, err := json.Marshal(cluster.MigrateRequest{VM: *name, Dest: *dest})
	if err != nil {
		return err
	}
	resp, err := client.Post(manager+"/v1/migrate", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError("migrate", resp)
	}
	var rep cluster.MigrationReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return err
	}
	fmt.Printf("migrated %s %s → %s: %.0f MB in %d rounds over %v at %.0f MB/s, downtime %v\n",
		rep.VM, rep.From, rep.To, rep.Result.TransferredMB, rep.Result.Rounds,
		rep.Result.Duration.Round(time.Millisecond), rep.RateMBps,
		rep.Result.Downtime.Round(time.Millisecond))
	return nil
}

func status(manager string, args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	servers := fs.Bool("servers", false, "include per-server detail")
	if err := fs.Parse(args); err != nil {
		return err
	}
	url := manager + "/v1/cluster"
	if *servers {
		url += "?servers=true"
	}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError("status", resp)
	}
	var cs cluster.ClusterState
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		return err
	}
	fmt.Printf("vms: %d  rejected: %d  preemptions: %d  overcommit mean/max: %.2f/%.2f\n",
		cs.VMs, cs.Rejected, cs.Preemptions, cs.MeanOC, cs.MaxOC)
	for _, s := range cs.Servers {
		sub := s.Substrate
		if sub == "" {
			sub = "hypervisor" // nodes predating the substrate report
		}
		fmt.Printf("  %-12s substrate=%-10s mode=%-15s oc=%.2f free=%v\n",
			s.Name, sub, s.Mode, s.Overcommitment, s.Free)
		for _, v := range s.VMs {
			backend := v.Substrate
			if backend == "" {
				backend = "hypervisor"
			}
			fmt.Printf("    %-14s %-5s backend=%-10s app=%-16s alloc=%v tput=%.2f\n",
				v.Name, v.Priority, backend, v.App, v.Allocation, v.Throughput)
		}
	}
	return nil
}

// state dumps the manager's durable-state view: current placements, journal
// position, last snapshot age, and — when the manager recovered on start —
// the recovery report.
func state(manager string, args []string) error {
	fs := flag.NewFlagSet("state", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "print the raw JSON response")
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp, err := client.Get(manager + "/v1/state")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError("state", resp)
	}
	var st cluster.ManagerStateResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	durability := "in-memory only (no -state-dir)"
	if st.Durable {
		durability = "durable"
	}
	if st.Role != "" {
		fmt.Printf("role: %s  epoch: %d\n", st.Role, st.Epoch)
	}
	if r := st.Replication; r != nil {
		fmt.Printf("replicating: %s  applied=%d leader=%d lag=%d misses=%d",
			r.Leader, r.AppliedSeq, r.LeaderSeq, r.Lag, r.ConsecutiveMisses)
		if r.LeaderDead {
			fmt.Print("  LEASE EXPIRED")
		}
		fmt.Println()
	}
	fmt.Printf("vms: %d  state: %s\n", st.VMs, durability)
	if j := st.Journal; j != nil {
		fmt.Printf("journal: %s  seq=%d appended=%d fsyncs=%d", j.Dir, j.Seq, j.Appended, j.Fsyncs)
		if j.AppendErrors > 0 {
			fmt.Printf(" append-errors=%d", j.AppendErrors)
		}
		fmt.Println()
		fmt.Printf("snapshot: seq=%d size=%dB age=%.1fs\n", j.SnapshotSeq, j.SnapshotBytes, j.SnapshotAgeSecs)
	}
	if r := st.Recovery; r != nil {
		fmt.Printf("recovered: %d placements in %v (replayed %d records; "+
			"adopted=%d replaced=%d lost=%d reasserted=%d stale=%d",
			r.Placements, r.Duration.Round(time.Millisecond), r.RecordsReplayed,
			r.Adopted, r.Replaced, r.Lost, r.Reasserted, r.StaleReleased)
		if r.TornTail {
			fmt.Print("; torn tail truncated")
		}
		fmt.Println(")")
	}
	if len(st.Substrates) > 0 {
		// Deterministic order for scripting and smoke tests.
		nodes := make([]string, 0, len(st.Substrates))
		for name := range st.Substrates {
			nodes = append(nodes, name)
		}
		sort.Strings(nodes)
		fmt.Print("substrates:")
		for _, name := range nodes {
			kind := st.Substrates[name]
			if kind == "" {
				kind = "unknown"
			}
			fmt.Printf(" %s=%s", name, kind)
		}
		fmt.Println()
	}
	// Deterministic order for scripting and smoke tests.
	names := make([]string, 0, len(st.Placements))
	for name := range st.Placements {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-20s on %s\n", name, st.Placements[name])
	}
	return nil
}

// metrics scrapes a node's /metrics endpoint (the manager by default) and
// pretty-prints the registry: counters and gauges one per line, histograms
// with count, sum, and tail quantiles computed from the bucket counts.
func metrics(manager string, args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	node := fs.String("node", "", "node base URL (default: the manager)")
	raw := fs.Bool("raw", false, "print the raw Prometheus text exposition")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := *node
	if base == "" {
		base = manager
	}
	if *raw {
		resp, err := client.Get(base + "/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return httpError("metrics", resp)
		}
		_, err = io.Copy(os.Stdout, resp.Body)
		return err
	}
	resp, err := client.Get(base + "/metrics?format=json")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError("metrics", resp)
	}
	var snaps []telemetry.MetricSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snaps); err != nil {
		return err
	}
	if len(snaps) == 0 {
		fmt.Println("no metrics registered")
		return nil
	}
	for _, m := range snaps {
		switch m.Type {
		case "histogram":
			fmt.Printf("%-58s count=%d sum=%.4g p50=%.4g p99=%.4g\n",
				metricLabel(m), m.Count, m.Sum, bucketQuantile(m, 0.5), bucketQuantile(m, 0.99))
		default:
			fmt.Printf("%-58s %g\n", metricLabel(m), m.Value)
		}
	}
	return nil
}

func metricLabel(m telemetry.MetricSnapshot) string {
	if len(m.Labels) == 0 {
		return m.Name
	}
	// Deterministic label order mirrors the exposition format.
	keys := make([]string, 0, len(m.Labels))
	for k := range m.Labels {
		keys = append(keys, k)
	}
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	s := m.Name + "{"
	for i, k := range keys {
		if i > 0 {
			s += ","
		}
		s += k + "=" + m.Labels[k]
	}
	return s + "}"
}

// bucketQuantile estimates a quantile from a snapshot's cumulative buckets
// with linear interpolation, mirroring telemetry.Histogram.Quantile.
func bucketQuantile(m telemetry.MetricSnapshot, q float64) float64 {
	if m.Count == 0 || len(m.Buckets) == 0 {
		return 0
	}
	rank := q * float64(m.Count)
	lower, prevCum := 0.0, uint64(0)
	for i, b := range m.Buckets {
		if float64(b.CumulativeCount) >= rank {
			upper := b.UpperBound
			if i == len(m.Buckets)-1 && i > 0 {
				return m.Buckets[i-1].UpperBound // +Inf bucket: clamp
			}
			width := upper - lower
			inBucket := float64(b.CumulativeCount - prevCum)
			if inBucket == 0 {
				return upper
			}
			return lower + width*(rank-float64(prevCum))/inBucket
		}
		lower, prevCum = b.UpperBound, b.CumulativeCount
	}
	return m.Buckets[len(m.Buckets)-1].UpperBound
}

// traceCmd fetches a node's /debug/trace ring and prints the cascade
// decisions chronologically.
func traceCmd(manager string, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	node := fs.String("node", "", "node base URL (default: the manager)")
	n := fs.Int("n", 32, "number of most-recent events to show")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := *node
	if base == "" {
		base = manager
	}
	resp, err := client.Get(fmt.Sprintf("%s/debug/trace?n=%d", base, *n))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError("trace", resp)
	}
	var tr telemetry.TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return err
	}
	fmt.Printf("%d cascade decisions recorded, %d retained\n", tr.Total, tr.Retained)
	for _, e := range tr.Events {
		fmt.Printf("#%-6d %s %-9s node=%s vm=%s levels=%s reached=%s target=%v dur=%v",
			e.Seq, e.Time.Format(time.RFC3339), e.Kind, e.Node, e.VM, e.Levels, e.LevelReached, e.Target, e.Duration)
		if !e.Shortfall.IsZero() {
			fmt.Printf(" shortfall=%v", e.Shortfall)
		}
		if e.AppFailed {
			fmt.Print(" app-failed")
		}
		if e.OSFailed {
			fmt.Print(" os-failed")
		}
		if e.Err != "" {
			fmt.Printf(" err=%q", e.Err)
		}
		fmt.Println()
	}
	return nil
}

func httpError(op string, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("%s: %s: %s", op, resp.Status, bytes.TrimSpace(msg))
}
