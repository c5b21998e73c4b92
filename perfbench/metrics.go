package main

import (
	"strings"

	"pfsim/internal/experiments"
)

// layers are the pfsim/internal packages the workloads reach. Each gets
// a CPU and an allocation share; together with the runtime buckets the
// shares of a traced run sum to one.
var layers = []string{
	"sim", "flow", "lustre", "mpi", "mpiio", "ior", "plfs", "workload",
	"stats", "scenariofile", "pool", "sweep", "cluster", "core",
	"experiments", "report", "refdata",
}

func cpuBuckets() []string {
	return append(append([]string{}, layers...), "runtime.gc", "runtime.malloc", "runtime.other")
}

func allocBuckets() []string {
	return append(append([]string{}, layers...), "runtime.other")
}

// counterNames are the program's own deterministic counters, read from
// outside: flow.Stats as the runs return it, and engine activity seen
// through the poll hook (storm only). A counter a workload cannot reach
// reads 0.
var counterNames = []string{
	"flow.solves", "flow.components_solved", "flow.comp_flows_scanned",
	"flow.link_visits", "flow.rounds", "flow.flows_scanned",
	"flow.flows_settled", "flow.heap_ops", "flow.coalesced",
	"sim.events", "sim.peak_pending", "sim.peak_live_tasks",
}

// spanNames are the timed calls into the layers. A span a workload does
// not make reads 0.
func spanNames() []string {
	var out []string
	for _, id := range append(experiments.IDs(), experiments.ExtraIDs()...) {
		out = append(out, "experiments."+id+"_s")
	}
	return append(out, "scenariofile.load_s", "scenariofile.validate_s",
		"scenariofile.run_s", "workload.run_sharded_s")
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case name == "alloc_mb" || name == "peak_rss_mb":
		return "MB"
	case name == "allocs_k":
		return "k"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_share") || strings.HasSuffix(name, "_frac"):
		return "frac"
	default:
		return "count"
	}
}
