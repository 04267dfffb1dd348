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
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"os"
	"slices"
	"time"

	"deflation/internal/cluster"
	"deflation/internal/restypes"
	"deflation/internal/shard"
	"deflation/internal/telemetry"
	"deflation/internal/vm"
)

// client is the shared HTTP client for every subcommand. The explicit
// timeout means a wedged daemon fails the CLI fast instead of hanging it
// forever (http.DefaultClient has no timeout at all).
var client = &http.Client{Timeout: 15 * time.Second}

// errUsage is a command line deflctl cannot run; its usage has been printed.
var errUsage = errors.New("usage")

func main() {
	err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "deflctl: %v\n", err)
		os.Exit(1)
	}
}

// ctl is one deflctl invocation: the manager it talks to and where it
// prints.
type ctl struct {
	ctx            context.Context
	mgr            shard.Client
	stdout, stderr io.Writer
}

// run parses deflctl's command line and runs its subcommand.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	c := &ctl{ctx: ctx, stdout: stdout, stderr: stderr}
	fs := c.flags("deflctl")
	manager := fs.String("manager", "http://localhost:7000", "manager base URL")
	if err := c.parse(fs, args); err != nil {
		return err
	}
	c.mgr.ManagerClient = cluster.ManagerClient{Base: *manager, HTTP: client}
	args = fs.Args()
	if len(args) < 1 {
		return c.usage()
	}
	cmds := map[string]func(*ctl, []string) error{
		"launch":   (*ctl).launch,
		"release":  (*ctl).release,
		"migrate":  (*ctl).migrate,
		"status":   (*ctl).status,
		"state":    (*ctl).state,
		"metrics":  (*ctl).metrics,
		"trace":    (*ctl).trace,
		"shardmap": (*ctl).shardmap,
		"adopt":    (*ctl).adopt,
	}
	cmd, ok := cmds[args[0]]
	if !ok {
		return c.usage()
	}
	return cmd(c, args[1:])
}

// flags returns a subcommand's flag set, printing to c.stderr.
func (c *ctl) flags(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	return fs
}

// parse parses args into fs; a bad flag, which fs has printed, is a usage
// error.
func (c *ctl) parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errUsage
	}
	return err
}

func (c *ctl) usage() error {
	fmt.Fprintln(c.stderr, `usage: deflctl [-manager URL] <command> [flags]

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
	return errUsage
}

func (c *ctl) launch(args []string) error {
	fs := c.flags("launch")
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
	if err := c.parse(fs, args); err != nil {
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
	lr, err := c.mgr.Launch(c.ctx, spec)
	if err != nil {
		return fmt.Errorf("launch: %w", err)
	}
	fmt.Fprintf(c.stdout, "launched %s on %s", *name, lr.Server)
	if lr.Report.Deflations > 0 {
		fmt.Fprintf(c.stdout, " (deflated %d VMs)", lr.Report.Deflations)
	}
	if len(lr.Report.Preempted) > 0 {
		fmt.Fprintf(c.stdout, " (preempted: %v)", lr.Report.Preempted)
	}
	fmt.Fprintln(c.stdout)
	return nil
}

func (c *ctl) release(args []string) error {
	fs := c.flags("release")
	name := fs.String("name", "", "VM name (required)")
	if err := c.parse(fs, args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("release: -name is required")
	}
	if err := c.mgr.Release(c.ctx, *name); err != nil {
		return fmt.Errorf("release: %w", err)
	}
	fmt.Fprintf(c.stdout, "released %s\n", *name)
	return nil
}

// migrate live-migrates a VM to a named destination server. On failure the
// VM keeps running on its source (pre-copy rolls back cleanly), so the error
// path is safe to retry against a different destination.
func (c *ctl) migrate(args []string) error {
	fs := c.flags("migrate")
	name := fs.String("name", "", "VM name (required)")
	dest := fs.String("dest", "", "destination server name (required)")
	if err := c.parse(fs, args); err != nil {
		return err
	}
	if *name == "" || *dest == "" {
		return fmt.Errorf("migrate: -name and -dest are required")
	}
	rep, err := c.mgr.Migrate(c.ctx, cluster.MigrateRequest{VM: *name, Dest: *dest})
	if err != nil {
		return fmt.Errorf("migrate: %w", err)
	}
	fmt.Fprintf(c.stdout, "migrated %s %s → %s: %.0f MB in %d rounds over %v at %.0f MB/s, downtime %v\n",
		rep.VM, rep.From, rep.To, rep.Result.TransferredMB, rep.Result.Rounds,
		rep.Result.Duration.Round(time.Millisecond), rep.RateMBps,
		rep.Result.Downtime.Round(time.Millisecond))
	return nil
}

func (c *ctl) status(args []string) error {
	fs := c.flags("status")
	servers := fs.Bool("servers", false, "include per-server detail")
	if err := c.parse(fs, args); err != nil {
		return err
	}
	cs, err := c.mgr.Cluster(c.ctx, "", *servers)
	if err != nil {
		return fmt.Errorf("status: %w", err)
	}
	fmt.Fprintf(c.stdout, "vms: %d  rejected: %d  preemptions: %d  overcommit mean/max: %.2f/%.2f\n",
		cs.VMs, cs.Rejected, cs.Preemptions, cs.MeanOC, cs.MaxOC)
	for _, s := range cs.Servers {
		sub := s.Substrate
		if sub == "" {
			sub = "hypervisor" // nodes predating the substrate report
		}
		fmt.Fprintf(c.stdout, "  %-12s substrate=%-10s mode=%-15s oc=%.2f free=%v\n",
			s.Name, sub, s.Mode, s.Overcommitment, s.Free)
		for _, v := range s.VMs {
			backend := v.Substrate
			if backend == "" {
				backend = "hypervisor"
			}
			fmt.Fprintf(c.stdout, "    %-14s %-5s backend=%-10s app=%-16s alloc=%v tput=%.2f\n",
				v.Name, v.Priority, backend, v.App, v.Allocation, v.Throughput)
		}
	}
	return nil
}

// state dumps the manager's durable-state view: current placements, journal
// position, last snapshot age, and — when the manager recovered on start —
// the recovery report.
func (c *ctl) state(args []string) error {
	fs := c.flags("state")
	asJSON := fs.Bool("json", false, "print the raw JSON response")
	if err := c.parse(fs, args); err != nil {
		return err
	}
	st, err := c.mgr.State(c.ctx, "")
	if err != nil {
		return fmt.Errorf("state: %w", err)
	}
	if *asJSON {
		enc := json.NewEncoder(c.stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	durability := "in-memory only (no -state-dir)"
	if st.Durable {
		durability = "durable"
	}
	if st.Role != "" {
		fmt.Fprintf(c.stdout, "role: %s  epoch: %d\n", st.Role, st.Epoch)
	}
	if r := st.Replication; r != nil {
		fmt.Fprintf(c.stdout, "replicating: %s  applied=%d leader=%d lag=%d misses=%d",
			r.Leader, r.AppliedSeq, r.LeaderSeq, r.Lag, r.ConsecutiveMisses)
		if r.LeaderDead {
			fmt.Fprint(c.stdout, "  LEASE EXPIRED")
		}
		fmt.Fprintln(c.stdout)
	}
	fmt.Fprintf(c.stdout, "vms: %d  state: %s\n", st.VMs, durability)
	if j := st.Journal; j != nil {
		fmt.Fprintf(c.stdout, "journal: %s  seq=%d appended=%d fsyncs=%d", j.Dir, j.Seq, j.Appended, j.Fsyncs)
		if j.AppendErrors > 0 {
			fmt.Fprintf(c.stdout, " append-errors=%d", j.AppendErrors)
		}
		fmt.Fprintln(c.stdout)
		fmt.Fprintf(c.stdout, "snapshot: seq=%d size=%dB age=%.1fs\n", j.SnapshotSeq, j.SnapshotBytes, j.SnapshotAgeSecs)
	}
	if r := st.Recovery; r != nil {
		fmt.Fprintf(c.stdout, "recovered: %d placements in %v (replayed %d records; "+
			"adopted=%d replaced=%d lost=%d reasserted=%d stale=%d",
			r.Placements, r.Duration.Round(time.Millisecond), r.RecordsReplayed,
			r.Adopted, r.Replaced, r.Lost, r.Reasserted, r.StaleReleased)
		if r.TornTail {
			fmt.Fprint(c.stdout, "; torn tail truncated")
		}
		fmt.Fprintln(c.stdout, ")")
	}
	if len(st.Substrates) > 0 {
		// Deterministic order for scripting and smoke tests.
		fmt.Fprint(c.stdout, "substrates:")
		for _, name := range slices.Sorted(maps.Keys(st.Substrates)) {
			kind := st.Substrates[name]
			if kind == "" {
				kind = "unknown"
			}
			fmt.Fprintf(c.stdout, " %s=%s", name, kind)
		}
		fmt.Fprintln(c.stdout)
	}
	// Deterministic order for scripting and smoke tests.
	for _, name := range slices.Sorted(maps.Keys(st.Placements)) {
		fmt.Fprintf(c.stdout, "  %-20s on %s\n", name, st.Placements[name])
	}
	return nil
}

// metrics scrapes a node's /metrics endpoint (the manager by default) and
// pretty-prints the registry: counters and gauges one per line, histograms
// with count, sum, and tail quantiles computed from the bucket counts.
func (c *ctl) metrics(args []string) error {
	fs := c.flags("metrics")
	node := fs.String("node", "", "node base URL (default: the manager)")
	raw := fs.Bool("raw", false, "print the raw Prometheus text exposition")
	if err := c.parse(fs, args); err != nil {
		return err
	}
	base := *node
	if base == "" {
		base = c.mgr.Base
	}
	if *raw {
		resp, err := client.Get(base + "/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("metrics: %w", cluster.NewStatusError(resp))
		}
		_, err = io.Copy(c.stdout, resp.Body)
		return err
	}
	resp, err := client.Get(base + "/metrics?format=json")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics: %w", cluster.NewStatusError(resp))
	}
	var snaps []telemetry.MetricSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snaps); err != nil {
		return err
	}
	if len(snaps) == 0 {
		fmt.Fprintln(c.stdout, "no metrics registered")
		return nil
	}
	for _, m := range snaps {
		switch {
		case m.Type != "histogram":
			fmt.Fprintf(c.stdout, "%-58s %g\n", metricLabel(m), m.Value)
		case math.IsNaN(m.Quantile(0.5)):
			fmt.Fprintf(c.stdout, "%-58s count=%d no data\n", metricLabel(m), m.Count)
		default:
			fmt.Fprintf(c.stdout, "%-58s count=%d sum=%.4g p50=%.4g p99=%.4g\n",
				metricLabel(m), m.Count, m.Sum, m.Quantile(0.5), m.Quantile(0.99))
		}
	}
	return nil
}

func metricLabel(m telemetry.MetricSnapshot) string {
	if len(m.Labels) == 0 {
		return m.Name
	}
	// Deterministic label order mirrors the exposition format.
	s := m.Name + "{"
	for i, k := range slices.Sorted(maps.Keys(m.Labels)) {
		if i > 0 {
			s += ","
		}
		s += k + "=" + m.Labels[k]
	}
	return s + "}"
}

// trace fetches a node's /debug/trace ring and prints the cascade
// decisions chronologically.
func (c *ctl) trace(args []string) error {
	fs := c.flags("trace")
	node := fs.String("node", "", "node base URL (default: the manager)")
	n := fs.Int("n", 32, "number of most-recent events to show")
	if err := c.parse(fs, args); err != nil {
		return err
	}
	base := *node
	if base == "" {
		base = c.mgr.Base
	}
	resp, err := client.Get(fmt.Sprintf("%s/debug/trace?n=%d", base, *n))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trace: %w", cluster.NewStatusError(resp))
	}
	var tr telemetry.TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "%d cascade decisions recorded, %d retained\n", tr.Total, tr.Retained)
	for _, e := range tr.Events {
		fmt.Fprintf(c.stdout, "#%-6d %s %-9s node=%s vm=%s levels=%s reached=%s target=%v dur=%v",
			e.Seq, e.Time.Format(time.RFC3339), e.Kind, e.Node, e.VM, e.Levels, e.LevelReached, e.Target, e.Duration)
		if !e.Shortfall.IsZero() {
			fmt.Fprintf(c.stdout, " shortfall=%v", e.Shortfall)
		}
		if e.AppFailed {
			fmt.Fprint(c.stdout, " app-failed")
		}
		if e.OSFailed {
			fmt.Fprint(c.stdout, " os-failed")
		}
		if e.Err != "" {
			fmt.Fprintf(c.stdout, " err=%q", e.Err)
		}
		fmt.Fprintln(c.stdout)
	}
	return nil
}
