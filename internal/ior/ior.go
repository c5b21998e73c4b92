// Package ior reimplements the IOR benchmark over the simulated MPI-IO
// stack: segmented shared-file or file-per-process workloads, configurable
// block/transfer sizes and repetition counts, with bandwidth accounted the
// way IOR reports it (total bytes over the open-to-close span of the
// slowest rank). Table II of the paper is the PaperConfig preset.
package ior

import (
	"fmt"
	"math"

	"pfsim/internal/cluster"
	"pfsim/internal/core"
	"pfsim/internal/flow"
	"pfsim/internal/lustre"
	"pfsim/internal/mpi"
	"pfsim/internal/mpiio"
	"pfsim/internal/sim"
	"pfsim/internal/stats"
)

// Config describes one IOR execution.
type Config struct {
	// Label names the run in reports.
	Label string
	// API selects the MPI-IO driver.
	API mpiio.Driver
	// BlockSizeMB is the contiguous block each rank writes per segment.
	BlockSizeMB float64
	// TransferSizeMB is the size of each I/O request.
	TransferSizeMB float64
	// SegmentCount is the number of segments (blocks per rank).
	SegmentCount int
	// NumTasks is the number of MPI ranks.
	NumTasks int
	// WriteFile / ReadFile select the phases (Table II: write on, read off).
	WriteFile bool
	ReadFile  bool
	// FilePerProc gives every rank a private file written as a dedicated
	// sequential stream (the Figure 2 benchmark) instead of a shared file.
	FilePerProc bool
	// Collective uses collective buffering for shared files (default
	// true in the paper); false issues independent writes.
	Collective bool
	// Hints are the MPI-IO hints (ad_lustre tuning knobs).
	Hints mpiio.Hints
	// Reps is the number of repetitions; each recreates the file and so
	// redraws its OST layout.
	Reps int
	// ComputeSeconds inserts a compute phase of this many virtual seconds
	// between repetitions. Periodic checkpointers use it to space their
	// writes out in time instead of issuing them back to back.
	ComputeSeconds float64
	// FirstNode places the job on the cluster (jobs in contended
	// experiments occupy disjoint node ranges).
	FirstNode int
}

// PaperConfig returns the Table II configuration: MPI-IO, write-only,
// 4 MB blocks, 1 MB transfers, 100 segments, collective I/O.
func PaperConfig(tasks int) Config {
	return Config{
		Label:          fmt.Sprintf("ior-%d", tasks),
		API:            mpiio.DriverLustre,
		BlockSizeMB:    4,
		TransferSizeMB: 1,
		SegmentCount:   100,
		NumTasks:       tasks,
		WriteFile:      true,
		Collective:     true,
		Hints:          mpiio.NewHints(),
		Reps:           5,
	}
}

// TunedHints returns the optimal configuration found by the paper's
// parameter sweep: 160 stripes of 128 MB.
func TunedHints() mpiio.Hints {
	h := mpiio.NewHints()
	h.StripingFactor = 160
	h.StripingUnitMB = 128
	return h
}

// PerRankMB is the volume each rank writes per phase.
func (c Config) PerRankMB() float64 { return c.BlockSizeMB * float64(c.SegmentCount) }

// TotalMB is the volume the whole job writes per phase.
func (c Config) TotalMB() float64 { return c.PerRankMB() * float64(c.NumTasks) }

// Validate reports the first problem with the configuration for plat.
func (c Config) Validate(plat *cluster.Platform) error {
	switch {
	case c.NumTasks <= 0:
		return fmt.Errorf("ior: NumTasks %d must be positive", c.NumTasks)
	case c.BlockSizeMB <= 0 || c.TransferSizeMB <= 0:
		return fmt.Errorf("ior: block/transfer sizes must be positive")
	case c.TransferSizeMB > c.BlockSizeMB:
		return fmt.Errorf("ior: transfer %v exceeds block %v", c.TransferSizeMB, c.BlockSizeMB)
	case c.SegmentCount <= 0:
		return fmt.Errorf("ior: SegmentCount must be positive")
	case c.Reps <= 0:
		return fmt.Errorf("ior: Reps must be positive")
	case !c.WriteFile && !c.ReadFile:
		return fmt.Errorf("ior: nothing to do (write and read both off)")
	case c.FirstNode < 0:
		return fmt.Errorf("ior: FirstNode must be non-negative")
	case c.ComputeSeconds < 0 || math.IsNaN(c.ComputeSeconds):
		return fmt.Errorf("ior: ComputeSeconds %v must be non-negative", c.ComputeSeconds)
	}
	nodes := plat.NodesFor(c.NumTasks)
	if c.FirstNode+nodes > plat.Nodes {
		return fmt.Errorf("ior: job needs nodes %d..%d but platform has %d",
			c.FirstNode, c.FirstNode+nodes-1, plat.Nodes)
	}
	return nil
}

// Result aggregates the repetitions of one IOR execution.
type Result struct {
	Config Config
	// Write and Read hold per-repetition aggregate bandwidths (MB/s).
	Write *stats.Sample
	Read  *stats.Sample
	// LayoutOSTs records the shared file's OST layout per repetition
	// (nil entries for PLFS, which has per-rank layouts).
	LayoutOSTs [][]int
	// PLFS holds the realised per-rank backend assignment per repetition
	// for PLFS runs.
	PLFS []core.Assignment
}

// PerProcWrite returns write bandwidth divided by task count — the
// per-processor metric of Figure 2.
func (r *Result) PerProcWrite() *stats.Sample {
	out := &stats.Sample{}
	for _, bw := range r.Write.Values() {
		out.Add(bw / float64(r.Config.NumTasks))
	}
	return out
}

// Run executes the configuration on a fresh simulated system and returns
// per-repetition bandwidths. The run is deterministic for a given
// (platform seed, config) pair.
func Run(plat *cluster.Platform, cfg Config) (*Result, error) {
	if err := cfg.Validate(plat); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	sys, err := lustre.NewSystem(eng, plat, stats.NewRNG(plat.Seed).Fork(hashLabel(cfg.Label)))
	if err != nil {
		return nil, err
	}
	res := newResult(cfg)
	job := &job{sys: sys, cfg: cfg, res: res}
	job.launch()
	if err := eng.Run(); err != nil {
		return nil, fmt.Errorf("ior: simulation failed: %w", err)
	}
	return res, job.err
}

// RunContended executes n simultaneous copies of base on one simulated
// system, each on a disjoint node range, all started at time zero — the
// Section V contention experiments. Jobs repeat their reps back-to-back
// and drift apart naturally, as on the real machine.
func RunContended(plat *cluster.Platform, base Config, n int) ([]*Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ior: need at least one job")
	}
	eng := sim.NewEngine()
	sys, err := lustre.NewSystem(eng, plat, stats.NewRNG(plat.Seed).Fork(hashLabel(base.Label)+uint64(n)))
	if err != nil {
		return nil, err
	}
	nodes := plat.NodesFor(base.NumTasks)
	results := make([]*Result, n)
	jobs := make([]*job, n)
	for j := 0; j < n; j++ {
		cfg := base
		cfg.Label = fmt.Sprintf("%s-job%d", base.Label, j)
		cfg.FirstNode = j * nodes
		if err := cfg.Validate(plat); err != nil {
			return nil, err
		}
		results[j] = newResult(cfg)
		jobs[j] = &job{sys: sys, cfg: cfg, res: results[j]}
		jobs[j].launch()
	}
	if err := eng.Run(); err != nil {
		return nil, fmt.Errorf("ior: contended simulation failed: %w", err)
	}
	for _, jb := range jobs {
		if jb.err != nil {
			return nil, jb.err
		}
	}
	return results, nil
}

func newResult(cfg Config) *Result {
	return &Result{Config: cfg, Write: &stats.Sample{}, Read: &stats.Sample{}}
}

func hashLabel(s string) uint64 {
	// FNV-1a; labels seed per-run RNG streams deterministically.
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// HashLabel is the RNG-fork key Run derives from a config label. Scenario
// execution reuses it so a single-job scenario reproduces Run exactly.
func HashLabel(s string) uint64 { return hashLabel(s) }

// RunningJob is a job launched on a shared simulated system via StartJob.
type RunningJob struct {
	// Result fills in as repetitions complete.
	Result *Result
	// Done fires when every rank's body has returned.
	Done *sim.Signal
	j    *job
}

// Err reports a failure inside the job's ranks (nil while healthy).
func (r *RunningJob) Err() error { return r.j.err }

// StartJob launches cfg on an existing simulated system at the current
// virtual time. It is the building block for schedulers and custom
// multi-job scenarios; Run and RunContended remain the conveniences for
// one-shot executions.
func StartJob(sys *lustre.System, cfg Config) (*RunningJob, error) {
	if err := cfg.Validate(sys.Platform()); err != nil {
		return nil, err
	}
	res := newResult(cfg)
	j := &job{sys: sys, cfg: cfg, res: res}
	w := j.launch()
	return &RunningJob{Result: res, Done: w.Done(), j: j}, nil
}

// job drives one IOR execution inside a shared simulation.
type job struct {
	sys *lustre.System
	cfg Config
	res *Result
	err error
	// files are the shared file of each repetition (nil for FilePerProc
	// jobs, whose ranks open private files).
	files []*mpiio.File
}

func (j *job) launch() *mpi.World {
	cfg := &j.cfg
	w := mpi.NewWorld(j.sys.Engine(), cfg.NumTasks, j.sys.Platform().CoresPerNode, cfg.FirstNode)
	// Shared files are allocated up front so every rank of a repetition
	// uses the same handle; layouts are still drawn at Open time.
	if !cfg.FilePerProc {
		j.files = make([]*mpiio.File, cfg.Reps)
		for rep := range j.files {
			j.files[rep] = mpiio.NewFile(j.sys, w.Comm(),
				fmt.Sprintf("%s.rep%d", cfg.Label, rep), cfg.API, cfg.Hints)
		}
	}
	w.LaunchTasks(func(r *mpi.Rank, done func()) {
		rr := &rankRun{j: j, r: r, done: done}
		rr.step = rr.stepK
		rr.stepF = rr.stepFK
		rr.stepErr = rr.stepErrK
		if cfg.FilePerProc {
			rr.stepComm = rr.privateFile
		}
		rr.startRep()
	})
	return w
}

// at is where a rank's repetition resumes next.
type at int32

const (
	atComputed    at = iota // the compute gap before a repetition ended
	atBarrier               // the opening barrier passed
	atT0                    // the write phase's start time is agreed
	atOpened                // the file is open
	atWritten               // the rank's write finished
	atClosed                // the file is closed
	atT1                    // the write phase's end time is agreed
	atReadBarrier           // the read phase's barrier passed
	atReadT0                // the read phase's start time is agreed
	atRead                  // the rank's read finished
	atReadT1                // the read phase's end time is agreed
)

// rankRun is one rank's progress through the job's repetitions: the
// repetition, its file and start time, and where the rank resumes next.
// Its continuations are method values bound once per rank, one per
// signature (step, stepF, stepErr, and stepComm for a FilePerProc
// rank's split), so a repetition allocates no closures; each blocking
// call sets at and passes the stepper matching the callee's
// continuation type.
type rankRun struct {
	j    *job
	r    *mpi.Rank
	done func()

	rep int32
	at  at
	t0  float64
	f   *mpiio.File

	step     func()
	stepF    func(float64)
	stepErr  func(error)
	stepComm func(*mpi.Comm) // FilePerProc only
}

// startRep runs repetition rep, or retires the rank after the last: the
// compute gap precedes every repetition but the first.
func (rr *rankRun) startRep() {
	cfg := &rr.j.cfg
	if int(rr.rep) >= cfg.Reps {
		rr.done()
		return
	}
	if rr.rep > 0 && cfg.ComputeSeconds > 0 {
		rr.at = atComputed
		rr.r.Task().Sleep(cfg.ComputeSeconds, rr.step)
		return
	}
	rr.openFile()
}

// openFile picks the repetition's file — a FilePerProc rank splits off its
// private communicator and file — and starts the write (and optional
// read) phase.
func (rr *rankRun) openFile() {
	if rr.j.cfg.FilePerProc {
		rr.r.World().Comm().SplitK(rr.r, rr.r.ID(), 0, rr.stepComm)
		return
	}
	rr.f = rr.j.files[rr.rep]
	rr.begin()
}

// privateFile opens a FilePerProc rank's file on its split communicator.
//
//pfsim:allocok per-repetition private file: a communicator, a file and its name per rank and repetition
func (rr *rankRun) privateFile(sub *mpi.Comm) {
	cfg := &rr.j.cfg
	rr.f = mpiio.NewFile(rr.j.sys, sub,
		fmt.Sprintf("%s.rep%d.rank%d", cfg.Label, rr.rep, rr.r.ID()), cfg.API, cfg.Hints)
	rr.begin()
}

// begin runs one repetition's phases: barrier/reduce brackets around
// open-write-close and the read pass, with rank 0 recording the aggregate
// bandwidths.
func (rr *rankRun) begin() {
	rr.at = atBarrier
	rr.r.World().Comm().BarrierK(rr.r, rr.step)
}

// readPhase runs the optional read pass, or ends the repetition.
func (rr *rankRun) readPhase() {
	if !rr.j.cfg.ReadFile {
		rr.endRep(nil)
		return
	}
	rr.at = atReadBarrier
	rr.r.World().Comm().BarrierK(rr.r, rr.step)
}

// endRep moves on to the next repetition; a phase error stops this rank
// only if it is the first error of the job.
func (rr *rankRun) endRep(err error) {
	if err != nil && rr.j.err == nil {
		rr.j.err = err
		rr.done()
		return
	}
	rr.rep++
	rr.startRep()
}

// stepK resumes the rank after a step without a result.
//
//pfsim:hotpath
func (rr *rankRun) stepK() {
	r := rr.r
	c := r.World().Comm()
	switch rr.at {
	case atComputed:
		rr.openFile()
	case atBarrier:
		if !rr.j.cfg.WriteFile {
			rr.readPhase()
			return
		}
		rr.at = atT0
		c.AllreduceMinK(r, r.Task().Now(), rr.stepF)
	case atClosed:
		rr.at = atT1
		c.AllreduceMaxK(r, r.Task().Now(), rr.stepF)
	case atReadBarrier:
		rr.at = atReadT0
		c.AllreduceMinK(r, r.Task().Now(), rr.stepF)
	case atWritten:
		rr.stepErrK(nil) // a file-per-process write's streams drained
	}
}

// stepFK resumes the rank with an agreed phase start or end time.
//
//pfsim:hotpath
func (rr *rankRun) stepFK(v float64) {
	j, r := rr.j, rr.r
	c := r.World().Comm()
	switch rr.at {
	case atT0:
		rr.t0 = v
		rr.at = atOpened
		rr.f.OpenK(r, rr.stepErr)
	case atT1:
		if c.RankOf(r) == 0 {
			j.record(j.res.Write, rr.f, v-rr.t0)
		}
		rr.readPhase()
	case atReadT0:
		rr.t0 = v
		rr.at = atRead
		rr.f.ReadAllK(r, j.cfg.PerRankMB(), j.cfg.TransferSizeMB, rr.stepErr)
	case atReadT1:
		if c.RankOf(r) == 0 {
			j.res.Read.Add(j.cfg.TotalMB() / (v - rr.t0))
		}
		rr.endRep(nil)
	}
}

// stepErrK resumes the rank after a file operation, ending the
// repetition early on an error.
//
//pfsim:hotpath
func (rr *rankRun) stepErrK(err error) {
	if err != nil {
		rr.endRep(err)
		return
	}
	r := rr.r
	switch rr.at {
	case atOpened:
		rr.at = atWritten
		rr.write()
	case atWritten:
		rr.at = atClosed
		rr.f.CloseK(r, rr.step)
	case atRead:
		rr.at = atReadT1
		r.World().Comm().AllreduceMaxK(r, r.Task().Now(), rr.stepF)
	}
}

// write issues the rank's write for the configured access pattern; the
// rank resumes at atWritten.
func (rr *rankRun) write() {
	cfg := &rr.j.cfg
	per := cfg.PerRankMB()
	switch {
	case cfg.FilePerProc:
		rr.writeFilePerProc()
	case cfg.Collective:
		rr.f.WriteAllK(rr.r, per, cfg.TransferSizeMB, rr.stepErr)
	default:
		rr.f.WriteIndependentK(rr.r, per, cfg.TransferSizeMB, rr.stepErr)
	}
}

// writeFilePerProc streams the rank's data to its private file as a
// dedicated sequential writer — the access pattern of the paper's
// single-OST contention benchmark.
func (rr *rankRun) writeFilePerProc() {
	j, r, f := rr.j, rr.r, rr.f
	layout := f.Layout()
	if layout == nil {
		// PLFS + FilePerProc degenerates to the same per-rank logs.
		f.WriteAllK(r, j.cfg.PerRankMB(), j.cfg.TransferSizeMB, rr.stepErr)
		return
	}
	sim.AwaitAll(r.Task(), flow.Dones(j.sys.StartWrites(j.filePerProcReqs(r, f, layout))), rr.step) //pfsim:allocok the rank's streams and their signal list, once per repetition
}

// filePerProcReqs builds the rank's dedicated sequential streams onto its
// private file's OSTs.
//
//pfsim:allocok the rank's write requests and stream names, one batch per repetition
func (j *job) filePerProcReqs(r *mpi.Rank, f *mpiio.File, layout *lustre.Layout) []lustre.WriteReq {
	shares := layout.BytesPerOST(j.cfg.PerRankMB())
	var reqs []lustre.WriteReq
	for i, mb := range shares {
		if mb <= 0 {
			continue
		}
		ost := j.sys.OST(layout.OSTs[i])
		reqs = append(reqs, lustre.WriteReq{
			Name:   fmt.Sprintf("fpp:%s:r%d:o%d", j.cfg.Label, r.ID(), ost.ID()),
			SizeMB: mb,
			OST:    ost,
			Opts: lustre.WriteOpts{
				Node:   r.Node(),
				Class:  cluster.ClassSequential,
				FileID: fileIDOf(f, r),
				RPCMB:  j.cfg.TransferSizeMB,
			},
		})
	}
	return reqs
}

func fileIDOf(f *mpiio.File, r *mpi.Rank) int {
	if id := f.FileID(); id != 0 {
		return id
	}
	return r.ID() + 1
}

// record captures bandwidth and layout telemetry for one repetition.
//
//pfsim:allocok rank 0's per-repetition telemetry
func (j *job) record(sample *stats.Sample, f *mpiio.File, elapsed float64) {
	sample.Add(j.cfg.TotalMB() / elapsed)
	if c := f.Container(); c != nil {
		j.res.PLFS = append(j.res.PLFS, c.Assignment())
		j.res.LayoutOSTs = append(j.res.LayoutOSTs, nil)
		return
	}
	if l := f.Layout(); l != nil {
		osts := make([]int, len(l.OSTs))
		copy(osts, l.OSTs)
		j.res.LayoutOSTs = append(j.res.LayoutOSTs, osts)
	} else {
		j.res.LayoutOSTs = append(j.res.LayoutOSTs, nil)
	}
}
