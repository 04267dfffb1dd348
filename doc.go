// Package deflation is a from-scratch Go reproduction of "Resource
// Deflation: A New Approach For Transient Resource Reclamation" (Sharma,
// Ali-Eldin, Shenoy — EuroSys 2019).
//
// Deflatable VMs shrink (and re-expand) under resource pressure instead of
// being preempted. The repository implements the paper's multi-level
// cascade deflation (application → guest OS → hypervisor), the application
// deflation policies (memcached LRU resize, JVM heap resize, the Spark
// running-time-minimizing policy of Eq. 1–3), and deflation-aware cluster
// management (cosine-fitness bin packing over free+deflatable availability,
// proportional deflation, reinflation, preemption only below minimum
// sizes), together with simulated substrates for everything the paper ran
// on real hardware: a KVM-like hypervisor, guest OS hotplug, a mini-Spark
// engine with lineage recomputation, and a trace-driven 100-node cluster
// simulator.
//
// The package tree lives under internal/; the public surface is the set of
// command-line tools under cmd/. Runnable walk-throughs are the Example
// functions of internal/cascade, internal/cluster, internal/spark and
// internal/agent.
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results of every figure.
package deflation
