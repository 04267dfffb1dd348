package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"

	"deflation/internal/shard"
)

// shardmap prints a federated manager's shard map: version, membership,
// and any adoption overlays, plus (with -key) which shard owns a given VM
// or node name.
func (c *ctl) shardmap(args []string) error {
	fs := c.flags("shardmap")
	asJSON := fs.Bool("json", false, "print the raw JSON response")
	key := fs.String("key", "", "also resolve this VM/node name to its owning shard")
	if err := c.parse(fs, args); err != nil {
		return err
	}
	m, err := c.mgr.ShardMap(c.ctx)
	if err != nil {
		return fmt.Errorf("shardmap: %w", err)
	}
	if *asJSON {
		enc := json.NewEncoder(c.stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	}
	v := shard.NewView(m)
	fmt.Fprintf(c.stdout, "shard map v%d  (%d members)\n", m.Version, len(m.Members))
	for _, mem := range m.Members {
		note := ""
		if adopter, ok := m.Adopted[mem.ID]; ok {
			note = fmt.Sprintf("  [dead; served by %s]", adopter)
		}
		fmt.Fprintf(c.stdout, "  %-12s %s%s\n", mem.ID, mem.URL, note)
	}
	if len(m.Adopted) > 0 {
		fmt.Fprintf(c.stdout, "adoptions: %d (%v)\n", len(m.Adopted), slices.Sorted(maps.Keys(m.Adopted)))
	}
	if *key != "" {
		fmt.Fprintf(c.stdout, "key %q: ring owner %s, served by %s\n", *key, v.RingOwner(*key), v.Owner(*key))
	}
	return nil
}

// adopt asks a federated manager to take over a dead peer's shard by
// replaying its journal from the shared state root. The peer must already
// be stopped: adoption fences it, but a live peer would keep serving until
// its next fenced command.
func (c *ctl) adopt(args []string) error {
	fs := c.flags("adopt")
	dead := fs.String("shard", "", "dead shard ID to adopt (required)")
	if err := c.parse(fs, args); err != nil {
		return err
	}
	if *dead == "" {
		return fmt.Errorf("adopt: -shard is required")
	}
	rep, err := c.mgr.Adopt(c.ctx, *dead)
	if err != nil {
		return fmt.Errorf("adopt: %w", err)
	}
	fmt.Fprintf(c.stdout, "adopted %s: %d placements recovered (replayed %d records; %d adopted, %d replaced, %d lost, %d reasserted, %d stale released)\n",
		*dead, rep.Placements, rep.RecordsReplayed, rep.Adopted, rep.Replaced,
		rep.Lost, rep.Reasserted, rep.StaleReleased)
	return nil
}
