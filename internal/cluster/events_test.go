package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"deflation/internal/journal"
	"deflation/internal/restypes"
	"deflation/internal/vm"
)

// pinnedEvents is one journal event of every kind, with every optional
// field (Spec, Preempted, From, URL) set somewhere. Kinds are spelled as
// their journal strings: these are the bytes old journals hold.
func pinnedEvents() []Event {
	spec := func(name string) *LaunchSpec {
		return &LaunchSpec{Name: name, Size: restypes.V(4, 16384, 100, 100),
			MinSize: restypes.V(1, 4096, 25, 25), Priority: vm.HighPriority,
			AppKind: "inelastic", Warm: true, Substrate: "hypervisor"}
	}
	return []Event{
		{Kind: "node-add", Node: "s0", URL: "http://10.0.0.1:7070"},
		{Kind: "node-add", Node: "s2", URL: "http://10.0.0.3:7070"},
		{Kind: "leader"},
		{Kind: "launch", VM: "a", Node: "s0", Spec: spec("a"), Preempted: []string{"x"}},
		{Kind: "launch", VM: "b", Node: "s1", Spec: spec("b")},
		{Kind: "reject", VM: "c"},
		{Kind: "release", VM: "z"},
		{Kind: "preempt", VM: "y"},
		{Kind: "node-down", Node: "s1"},
		{Kind: "evict", VM: "b", Node: "s1"},
		{Kind: "replace", VM: "b", Node: "s0", Spec: spec("b"), Preempted: []string{"w"}},
		{Kind: "lost", VM: "c2"},
		{Kind: "node-up", Node: "s1"},
		{Kind: "adopt", VM: "d", Node: "s1", Spec: spec("d")},
		{Kind: "stale", VM: "e", Node: "s1"},
		{Kind: "migrate-start", VM: "a", Node: "s1", From: "s0"},
		{Kind: "migrate-done", VM: "a", Node: "s1", From: "s0"},
		{Kind: "migrate-start", VM: "d", Node: "s0", From: "s1"},
		{Kind: "migrate-fail", VM: "d", Node: "s0", From: "s1"},
		{Kind: "migrate-start", VM: "b", Node: "s1", From: "s0"},
		{Kind: "node-remove", Node: "s2"},
		{Kind: "node-down", Node: "s1"},
	}
}

const pinnedLog = `ed375cfa {"seq":1,"type":"node-add","data":{"kind":"node-add","node":"s0","url":"http://10.0.0.1:7070"},"epoch":2}
a8ea0804 {"seq":2,"type":"node-add","data":{"kind":"node-add","node":"s2","url":"http://10.0.0.3:7070"},"epoch":2}
ebc51c96 {"seq":3,"type":"leader","data":{"kind":"leader"},"epoch":2}
a089da48 {"seq":4,"type":"launch","data":{"kind":"launch","vm":"a","node":"s0","spec":{"name":"a","size":{"CPU":4,"MemoryMB":16384,"DiskMBps":100,"NetMBps":100},"min_size":{"CPU":1,"MemoryMB":4096,"DiskMBps":25,"NetMBps":25},"priority":1,"app_kind":"inelastic","guest_config":{"CPUs":0,"MemoryMB":0,"KernelMemMB":0,"PinnedCPUs":0,"MigrationEfficiency":0,"PageMigrateMBps":0,"CPUHotplugLatency":0,"WriteIntensity":0},"warm":true,"substrate":"hypervisor"},"preempted":["x"]},"epoch":2}
c6f397ab {"seq":5,"type":"launch","data":{"kind":"launch","vm":"b","node":"s1","spec":{"name":"b","size":{"CPU":4,"MemoryMB":16384,"DiskMBps":100,"NetMBps":100},"min_size":{"CPU":1,"MemoryMB":4096,"DiskMBps":25,"NetMBps":25},"priority":1,"app_kind":"inelastic","guest_config":{"CPUs":0,"MemoryMB":0,"KernelMemMB":0,"PinnedCPUs":0,"MigrationEfficiency":0,"PageMigrateMBps":0,"CPUHotplugLatency":0,"WriteIntensity":0},"warm":true,"substrate":"hypervisor"}},"epoch":2}
def6d4e9 {"seq":6,"type":"reject","data":{"kind":"reject","vm":"c"},"epoch":2}
d473bbb9 {"seq":7,"type":"release","data":{"kind":"release","vm":"z"},"epoch":2}
5d10ce23 {"seq":8,"type":"preempt","data":{"kind":"preempt","vm":"y"},"epoch":2}
b578fadb {"seq":9,"type":"node-down","data":{"kind":"node-down","node":"s1"},"epoch":2}
89420c59 {"seq":10,"type":"evict","data":{"kind":"evict","vm":"b","node":"s1"},"epoch":2}
b1132d29 {"seq":11,"type":"replace","data":{"kind":"replace","vm":"b","node":"s0","spec":{"name":"b","size":{"CPU":4,"MemoryMB":16384,"DiskMBps":100,"NetMBps":100},"min_size":{"CPU":1,"MemoryMB":4096,"DiskMBps":25,"NetMBps":25},"priority":1,"app_kind":"inelastic","guest_config":{"CPUs":0,"MemoryMB":0,"KernelMemMB":0,"PinnedCPUs":0,"MigrationEfficiency":0,"PageMigrateMBps":0,"CPUHotplugLatency":0,"WriteIntensity":0},"warm":true,"substrate":"hypervisor"},"preempted":["w"]},"epoch":2}
407c3e5f {"seq":12,"type":"lost","data":{"kind":"lost","vm":"c2"},"epoch":2}
bfc78acd {"seq":13,"type":"node-up","data":{"kind":"node-up","node":"s1"},"epoch":2}
d10ba460 {"seq":14,"type":"adopt","data":{"kind":"adopt","vm":"d","node":"s1","spec":{"name":"d","size":{"CPU":4,"MemoryMB":16384,"DiskMBps":100,"NetMBps":100},"min_size":{"CPU":1,"MemoryMB":4096,"DiskMBps":25,"NetMBps":25},"priority":1,"app_kind":"inelastic","guest_config":{"CPUs":0,"MemoryMB":0,"KernelMemMB":0,"PinnedCPUs":0,"MigrationEfficiency":0,"PageMigrateMBps":0,"CPUHotplugLatency":0,"WriteIntensity":0},"warm":true,"substrate":"hypervisor"}},"epoch":2}
72992471 {"seq":15,"type":"stale","data":{"kind":"stale","vm":"e","node":"s1"},"epoch":2}
c13bff10 {"seq":16,"type":"migrate-start","data":{"kind":"migrate-start","vm":"a","node":"s1","from":"s0"},"epoch":2}
b8b347b3 {"seq":17,"type":"migrate-done","data":{"kind":"migrate-done","vm":"a","node":"s1","from":"s0"},"epoch":2}
913c113d {"seq":18,"type":"migrate-start","data":{"kind":"migrate-start","vm":"d","node":"s0","from":"s1"},"epoch":2}
1e90d68d {"seq":19,"type":"migrate-fail","data":{"kind":"migrate-fail","vm":"d","node":"s0","from":"s1"},"epoch":2}
22cef878 {"seq":20,"type":"migrate-start","data":{"kind":"migrate-start","vm":"b","node":"s1","from":"s0"},"epoch":2}
bab09a97 {"seq":21,"type":"node-remove","data":{"kind":"node-remove","node":"s2"},"epoch":2}
a8bb9e4c {"seq":22,"type":"node-down","data":{"kind":"node-down","node":"s1"},"epoch":2}
`

const pinnedSnapshot = `{"applied_seq":22,"epoch":2,"placements":{"a":"s1","b":"s0","d":"s1"},"specs":{"a":{"name":"a","size":{"CPU":4,"MemoryMB":16384,"DiskMBps":100,"NetMBps":100},"min_size":{"CPU":1,"MemoryMB":4096,"DiskMBps":25,"NetMBps":25},"priority":1,"app_kind":"inelastic","guest_config":{"CPUs":0,"MemoryMB":0,"KernelMemMB":0,"PinnedCPUs":0,"MigrationEfficiency":0,"PageMigrateMBps":0,"CPUHotplugLatency":0,"WriteIntensity":0},"warm":true,"substrate":"hypervisor"},"b":{"name":"b","size":{"CPU":4,"MemoryMB":16384,"DiskMBps":100,"NetMBps":100},"min_size":{"CPU":1,"MemoryMB":4096,"DiskMBps":25,"NetMBps":25},"priority":1,"app_kind":"inelastic","guest_config":{"CPUs":0,"MemoryMB":0,"KernelMemMB":0,"PinnedCPUs":0,"MigrationEfficiency":0,"PageMigrateMBps":0,"CPUHotplugLatency":0,"WriteIntensity":0},"warm":true,"substrate":"hypervisor"},"d":{"name":"d","size":{"CPU":4,"MemoryMB":16384,"DiskMBps":100,"NetMBps":100},"min_size":{"CPU":1,"MemoryMB":4096,"DiskMBps":25,"NetMBps":25},"priority":1,"app_kind":"inelastic","guest_config":{"CPUs":0,"MemoryMB":0,"KernelMemMB":0,"PinnedCPUs":0,"MigrationEfficiency":0,"PageMigrateMBps":0,"CPUHotplugLatency":0,"WriteIntensity":0},"warm":true,"substrate":"hypervisor"}},"dead":{"s1":true},"nodes":{"s0":"http://10.0.0.1:7070"},"migrating":{"b":{"from":"s0","to":"s1"}},"rejected":1,"failure_preemptions":1,"replaced":1,"lost":1,"adopted":1,"stale_released":1,"migrations":1,"migration_failures":1}`

const pinnedReassert = `932acfeb {"seq":23,"type":"reassert","data":{"kind":"reassert","vm":"a","node":"s1","spec":{"name":"a","size":{"CPU":2,"MemoryMB":8192,"DiskMBps":50,"NetMBps":50},"min_size":{"CPU":1,"MemoryMB":2048,"DiskMBps":10,"NetMBps":10},"priority":1,"app_kind":"inelastic","guest_config":{"CPUs":0,"MemoryMB":0,"KernelMemMB":0,"PinnedCPUs":0,"MigrationEfficiency":0,"PageMigrateMBps":0,"CPUHotplugLatency":0,"WriteIntensity":0},"warm":true,"substrate":"hypervisor"}},"epoch":2}
`

// TestJournalBytesPinned journals one event of every kind through the
// durable recorder and compares the raw log, and the snapshot of the
// state its replay rebuilds, with committed bytes: a journal written by
// any earlier build must stay replayable, and a snapshot must stay
// readable by a standby running the previous build.
func TestJournalBytesPinned(t *testing.T) {
	dir := t.TempDir()
	m, _ := newCrashableCluster(t, 2, BestFit)
	j, err := journal.Open(dir, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.SetEpoch(2)
	rec := &durableRecorder{m: m, j: j, every: 1 << 30}
	for _, e := range pinnedEvents() {
		rec.Record(e)
	}
	if m.WALError() != nil {
		t.Fatal(m.WALError())
	}
	raw, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != pinnedLog {
		t.Errorf("journal bytes moved:\n%s", raw)
	}

	b, err := j.RecordsAfter(0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := replay(NewWALState(), b)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot(st); err != nil {
		t.Fatal(err)
	}
	if got := string(j.SnapshotData()); got != pinnedSnapshot {
		t.Errorf("snapshot bytes moved:\n%s", got)
	}

	// The reassert kind came after the others. Its record is pinned on its
	// own, after the compaction above, so no earlier byte moves; its replay
	// changes a spec and no count.
	spec := *pinnedEvents()[3].Spec
	spec.Size, spec.MinSize = restypes.V(2, 8192, 50, 50), restypes.V(1, 2048, 10, 10)
	rec.Record(Event{Kind: evReassert, VM: "a", Node: "s1", Spec: &spec})
	if raw, err = os.ReadFile(filepath.Join(dir, "journal.log")); err != nil {
		t.Fatal(err)
	}
	if string(raw) != pinnedReassert {
		t.Errorf("reassert bytes moved:\n%s", raw)
	}
	if b, err = j.RecordsAfter(st.AppliedSeq); err != nil {
		t.Fatal(err)
	}
	counts := st.Counts
	if st, err = replay(st, b); err != nil {
		t.Fatal(err)
	}
	if got := st.Specs["a"]; !reflect.DeepEqual(got, spec) || st.Counts != counts || st.AppliedSeq != 23 {
		t.Errorf("replayed reassert: spec %+v, counts %+v, seq %d; want spec %+v, counts %+v, seq 23",
			got, st.Counts, st.AppliedSeq, spec, counts)
	}
}

// countField is the Counts field an event of kind k adds to; ok is false
// for kinds nothing counts. It is the tests' oracle for Counts.add.
func countField(c Counts, k EventKind) (n int, ok bool) {
	switch k {
	case evReject:
		return c.Rejected, true
	case VMEvicted:
		return c.FailurePreemptions, true
	case VMReplaced:
		return c.Replaced, true
	case VMLost:
		return c.Lost, true
	case VMAdopted:
		return c.Adopted, true
	case VMStaleReleased:
		return c.StaleReleased, true
	case evMigrateDone:
		return c.Migrations, true
	case evMigrateFail:
		return c.MigrationFailures, true
	}
	return 0, false
}

// countedKinds are the kinds Counts has a field for.
var countedKinds = []EventKind{evReject, VMEvicted, VMReplaced, VMLost, VMAdopted,
	VMStaleReleased, evMigrateDone, evMigrateFail}

// kindTally is a Recorder that counts the events it sees by kind.
type kindTally map[EventKind]int

func (k kindTally) Record(e Event) { k[e.Kind]++ }

// TestLiveCountsEqualReplayedCounts runs one journaled scenario that emits
// every counted kind and checks that the manager's live counts equal the
// fold of its journal from sequence 0.
func TestLiveCountsEqualReplayedCounts(t *testing.T) {
	dir := t.TempDir()
	m, nodes := newDurableCluster(t, dir, 3, 0)
	defer m.Journal().Close()
	// Reject, evict, replace, migrate-done and migrate-fail.
	scriptedRun(t, m, nodes)

	// Stale: a partitioned node's VMs are re-placed while it is dead, and
	// the copies it still runs are released when it heals.
	hosting := func() int {
		for _, idx := range placedIndexes(m) {
			return idx
		}
		t.Fatal("no VM placed")
		return -1
	}
	victim := hosting()
	nodes[victim].isolate()
	probeUntilDead(t, m)
	nodes[victim].heal()
	m.ProbeHealth()

	// Lost and adopt: with the fleet full of undeflatable VMs, a
	// partitioned node's VMs have nowhere to go, and on healing they are
	// found still running.
	for i := 0; ; i++ {
		if i == 100 {
			t.Fatal("fleet never filled")
		}
		if _, _, err := m.Launch(durSpec(fmt.Sprintf("fill-%d", i), vm.LowPriority, 1)); err != nil {
			break
		}
	}
	victim = hosting()
	nodes[victim].isolate()
	probeUntilDead(t, m)
	nodes[victim].heal()
	m.ProbeHealth()

	for _, k := range countedKinds {
		if n, _ := countField(m.fold.Counts, k); n == 0 {
			t.Errorf("scenario emitted no %s event", k)
		}
	}
	b, err := m.Journal().RecordsAfter(0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := replay(NewWALState(), b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Counts != m.fold.Counts {
		t.Errorf("replayed counts %+v, live %+v", st.Counts, m.fold.Counts)
	}
}

// walEventKinds is every kind the manager journals, plus one no build
// knows, which replay must ignore.
var walEventKinds = []EventKind{evLaunch, evReject, evRelease, evPreempt, NodeDown, NodeUp,
	VMEvicted, VMReplaced, VMLost, VMAdopted, VMStaleReleased, evMigrateStart, evMigrateDone,
	evMigrateFail, evLeader, evNodeAdd, evNodeRemove, "from-a-later-build", evReassert}

// FuzzWALApply folds fuzzer-chosen event sequences (three bytes an event:
// kind, VM, node and optional fields) and checks that Apply accepts every
// well-formed record, that applying the sequence twice equals applying it
// once, that every count equals the number of records of its kind, that no
// placement names a node right after its node-remove, and that a fold cut
// at a point the first byte draws, written as a snapshot and read back,
// folds the rest of the sequence to the uncut fold.
func FuzzWALApply(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 15, 0, 1, 4, 0, 1, 6, 0x10, 0, 16, 0, 1})
	f.Add([]byte{11, 1, 1, 12, 1, 2, 3, 2, 0, 9, 0x12, 0x11, 8, 2, 0, 17, 0, 0, 10, 3, 2, 1, 3, 3})
	f.Add([]byte{2, 0, 0, 11, 0, 1, 0, 1, 1}) // cut with a migration in flight
	f.Fuzz(func(t *testing.T, raw []byte) {
		var recs []journal.Record
		for i := 0; i+3 <= len(raw); i += 3 {
			k, v, n := raw[i], raw[i+1], raw[i+2]
			e := Event{Kind: walEventKinds[int(k)%len(walEventKinds)],
				VM: fmt.Sprintf("v%d", v%4), Node: fmt.Sprintf("n%d", n%3),
				From: fmt.Sprintf("n%d", (n>>2)%3), URL: "http://agent"}
			if v&0x10 != 0 {
				e.Spec = &LaunchSpec{Name: e.VM, Size: restypes.V(1, 1024, 1, 1)}
			}
			if n&0x10 != 0 {
				e.Preempted = []string{fmt.Sprintf("v%d", (v>>2)%4)}
			}
			data, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, journal.Record{Seq: uint64(len(recs) + 1), Type: string(e.Kind), Data: data})
		}

		once := NewWALState()
		want := kindTally{}
		for _, rec := range recs {
			if err := once.Apply(rec); err != nil {
				t.Fatalf("record %d: %v", rec.Seq, err)
			}
			want[EventKind(rec.Type)]++
			if rec.Type != string(evNodeRemove) {
				continue
			}
			var e Event
			if err := json.Unmarshal(rec.Data, &e); err != nil {
				t.Fatal(err)
			}
			for vmName, node := range once.Placements {
				if node == e.Node {
					t.Fatalf("record %d: %s still placed on removed node %s", rec.Seq, vmName, node)
				}
			}
		}
		for _, k := range countedKinds {
			if n, _ := countField(once.Counts, k); n != want[k] {
				t.Errorf("%s count = %d, want %d records", k, n, want[k])
			}
		}

		twice := NewWALState()
		for range 2 {
			for _, rec := range recs {
				if err := twice.Apply(rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !reflect.DeepEqual(once, twice) {
			t.Errorf("applying twice:\n%+v\nonce:\n%+v", twice, once)
		}

		cut := 0
		if len(recs) > 0 {
			cut = int(raw[0]) % (len(recs) + 1)
		}
		head := NewWALState()
		for _, rec := range recs[:cut] {
			if err := head.Apply(rec); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := json.Marshal(head)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := replay(NewWALState(), journal.Batch{SnapshotSeq: uint64(cut), Snapshot: snap, Records: recs[cut:]})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(once, resumed) {
			t.Errorf("cut at %d, through a snapshot:\n%+v\nuncut:\n%+v", cut, resumed, once)
		}
	})
}
