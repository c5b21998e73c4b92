package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"path/filepath"
	"time"

	"pfsim"
	"pfsim/internal/cluster"
	"pfsim/internal/experiments"
	"pfsim/internal/flow"
	"pfsim/internal/lustre"
	"pfsim/internal/scenariofile"
	"pfsim/internal/workload"
)

// passConfig selects what one pass runs.
type passConfig struct {
	Workload string
	// Seed offsets every simulation seed of the workload; 0 keeps the
	// program's own seeds, the only inputs the golden digests and the
	// corpus assertions are calibrated for.
	Seed uint64
	// Tiny shrinks every workload to a smoke-test size.
	Tiny bool
	// Traced installs the engine poll hook (storm); profiling is the
	// caller's.
	Traced bool
	// Golden is the expected output digest; "" skips the comparison.
	Golden string
	// Corpus is the glob of scenario files the corpus workload runs.
	Corpus string
}

// recorder collects what a pass observes from outside the program: the
// instant of the first simulation call, spans around calls into the
// layers, counters the program returns, checked operations and the
// output digest.
type recorder struct {
	t0        time.Time
	setup     time.Duration // t0 to the first simulation call; 0 until then
	spans     map[string]float64
	counters  map[string]int64
	attempted int
	failed    int
	problems  []string
	digest    hash.Hash
}

func newRecorder(t0 time.Time) *recorder {
	return &recorder{t0: t0, spans: map[string]float64{}, counters: map[string]int64{}, digest: sha256.New()}
}

// simulate marks the first simulation call; the set-up phase ends there.
func (r *recorder) simulate() {
	if r.setup == 0 {
		r.setup = time.Since(r.t0)
	}
}

// span times fn and adds its duration to the named span.
func (r *recorder) span(name string, fn func()) {
	start := time.Now()
	fn()
	r.spans[name] += time.Since(start).Seconds()
}

// check counts one operation, failed unless ok.
func (r *recorder) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// emit feeds the output digest.
func (r *recorder) emit(format string, args ...any) {
	fmt.Fprintf(r.digest, format, args...)
	r.digest.Write([]byte{'\n'})
}

// finishDigest checks the digest against the golden value, as one more
// operation, and returns it.
func (r *recorder) finishDigest(golden string) string {
	sum := hex.EncodeToString(r.digest.Sum(nil))
	r.check(golden == "" || golden == sum, "digest %s, want %s", sum, golden)
	return sum
}

// addStats accumulates the solver's work counters.
func (r *recorder) addStats(s flow.Stats) {
	r.counters["flow.solves"] += s.Solves
	r.counters["flow.components_solved"] += s.ComponentsSolved
	r.counters["flow.comp_flows_scanned"] += s.ComponentFlowsScanned
	r.counters["flow.link_visits"] += s.LinkVisits
	r.counters["flow.rounds"] += s.Rounds
	r.counters["flow.flows_scanned"] += s.FlowsScanned
	r.counters["flow.flows_settled"] += s.FlowsSettled
	r.counters["flow.heap_ops"] += s.HeapOps
	r.counters["flow.coalesced"] += s.Coalesced
}

// bits renders a float exactly, so the digest sees every bit.
func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// emitJob digests one job's outcome: finish time and bandwidth exactly.
func (r *recorder) emitJob(shard int, jr *workload.JobResult) {
	r.emit("job %d %s start=%s finish=%s mbs=%s slowdown=%s",
		shard, jr.Label, bits(jr.StartAt), bits(jr.FinishedAt), bits(jr.WriteMBs()), bits(jr.Slowdown))
}

var workloads = map[string]func(*recorder, passConfig){
	"paper":  runPaper,
	"corpus": runCorpus,
	"storm":  runStorm,
}

// paperTinyIDs is the smoke-test subset: one analytic table and one
// simulated figure.
var paperTinyIDs = []string{"table6", "figure3"}

// runPaper regenerates every paper artefact, ablation and extension at
// the quick setting, serially. Operations: each Comparison (its measured
// value must be finite) and the output digest.
func runPaper(r *recorder, cfg passConfig) {
	ids := append(experiments.IDs(), experiments.ExtraIDs()...)
	if cfg.Tiny {
		ids = paperTinyIDs
	}
	plat := cluster.Cab()
	plat.Seed += cfg.Seed
	r.simulate()
	for _, id := range ids {
		run, ok := experiments.Lookup(id)
		if !ok {
			r.check(false, "unknown artefact %s", id)
			continue
		}
		p := *plat // runners get their own copy, as they would get a fresh Cab()
		var out *experiments.Outcome
		var err error
		r.span("experiments."+id+"_s", func() {
			out, err = run(experiments.Options{Plat: &p, Quick: true, Parallelism: 1})
		})
		if err != nil {
			r.check(false, "%s: %v", id, err)
			continue
		}
		r.emit("artefact %s %s", out.ID, out.Title)
		for _, t := range out.Tables {
			r.emit("%s", t.String())
		}
		for _, c := range out.Comparisons {
			r.emit("cmp %s paper=%s measured=%s", c.Metric, bits(c.Paper), bits(c.Measured))
			r.check(finite(c.Measured), "%s: %s measured %v", id, c.Metric, c.Measured)
		}
		for _, n := range out.Notes {
			r.emit("note %s", n)
		}
	}
}

// corpusTinyFile is the smoke-test corpus: the smallest file.
const corpusTinyFile = "paper-stripe-tuned.yaml"

// runCorpus loads, validates and compiles every scenario file, then runs
// each at width 1. Operations: each file's load-and-run, and at the
// files' own seeds each assertion. Under another seed the assertions are
// not counted: they are calibrated for the files' seeds only.
func runCorpus(r *recorder, cfg passConfig) {
	paths, err := filepath.Glob(cfg.Corpus)
	if err != nil || len(paths) == 0 {
		r.check(false, "no scenario files match %q (%v)", cfg.Corpus, err)
		return
	}
	if cfg.Tiny {
		paths = []string{filepath.Join(filepath.Dir(cfg.Corpus), corpusTinyFile)}
	}
	type loaded struct {
		path string
		file *scenariofile.File
		seed uint64
	}
	var files []loaded
	for _, path := range paths {
		var f *scenariofile.File
		r.span("scenariofile.load_s", func() { f, err = scenariofile.Load(path) })
		if err == nil {
			r.span("scenariofile.validate_s", func() { err = f.Validate() })
		}
		var seed uint64
		if err == nil && cfg.Seed != 0 {
			var plat *cluster.Platform
			if plat, err = f.BuildPlatform(); err == nil {
				seed = plat.Seed + cfg.Seed
			}
		}
		if err != nil {
			r.check(false, "%s: %v", path, err)
			continue
		}
		files = append(files, loaded{path, f, seed})
	}
	r.simulate()
	for _, l := range files {
		var res *scenariofile.Result
		r.span("scenariofile.run_s", func() {
			res, err = scenariofile.Run(l.file, scenariofile.RunOptions{Seed: l.seed, Parallelism: 1})
		})
		r.check(err == nil, "%s: %v", l.path, err)
		if err != nil {
			continue
		}
		r.emit("file %s", filepath.Base(l.path))
		res.EachJob(r.emitJob)
		r.emit("solver %+v", res.Solver())
		r.addStats(res.Solver())
		if cfg.Seed != 0 {
			continue
		}
		// One job assertion reports once per matched job, so failures
		// can outnumber assertions.
		n := l.file.Assert.Count()
		failed := min(len(res.Failures), n)
		for _, msg := range res.Failures[:failed] {
			r.check(false, "%s: %s", l.path, msg)
		}
		r.attempted += n - failed
	}
}

// Storm sizes: writers per shard and shards.
const (
	stormWriters     = 1024
	stormShards      = 16
	stormTinyWriters = 8
	stormTinyShards  = 4
)

// runStorm runs the file-per-process write storm on 16 disjoint file
// systems under one engine and one solver, with no slowdown baselines.
// Operations: each job completing, and the output digest. The traced
// pass counts engine events from outside through the poll hook.
func runStorm(r *recorder, cfg passConfig) {
	writers, shards := stormWriters, stormShards
	if cfg.Tiny {
		writers, shards = stormTinyWriters, stormTinyShards
	}
	plat, scens := pfsim.SolverShardedScenario(writers, shards)
	opts := workload.RunOptions{Parallelism: 1}
	if cfg.Seed != 0 {
		opts.Seed = plat.Seed + cfg.Seed
	}
	var events, peakPending, peakTasks int64
	instrument := func(i int, sys *lustre.System) {
		if !cfg.Traced || i != 0 {
			return // every shard shares one engine
		}
		eng := sys.Engine()
		eng.SetPoll(1, func() {
			events++
			peakPending = max(peakPending, int64(eng.Pending()))
			peakTasks = max(peakTasks, int64(eng.LiveTasks()))
		})
	}
	r.simulate()
	var res *workload.ShardedResult
	var err error
	r.span("workload.run_sharded_s", func() { res, err = workload.RunShardedWith(plat, scens, opts, instrument) })
	if err != nil {
		r.check(false, "storm: %v", err)
		return
	}
	for s, sh := range res.Shards {
		for i := range sh.Jobs {
			jr := &sh.Jobs[i]
			r.emitJob(s, jr)
			mbs := jr.WriteMBs()
			r.check(finite(jr.FinishedAt) && jr.FinishedAt > jr.StartAt && finite(mbs) && mbs > 0,
				"job %q did not complete: finish %v, %v MB/s", jr.Label, jr.FinishedAt, mbs)
		}
	}
	r.emit("makespan %s solver %+v", bits(res.Makespan), res.Solver)
	r.addStats(res.Solver)
	if cfg.Traced {
		r.counters["sim.events"] = events
		r.counters["sim.peak_pending"] = peakPending
		r.counters["sim.peak_live_tasks"] = peakTasks
	}
}
