// Package mpiio simulates the MPI-IO layer (ROMIO) over the Lustre
// substrate. It provides a collective file API with hints and three ADIO
// drivers:
//
//   - DriverUFS: the generic POSIX driver (ad_ufs). Collective buffering
//     works, but the driver is striping-blind: layout hints are ignored, so
//     files keep the system default layout — the "default MPI-IO"
//     configuration that the paper's 49× improvement is measured against.
//   - DriverLustre: the Lustre driver (ad_lustre). striping_factor,
//     striping_unit and stripe_offset hints reach the MDS at create time
//     and aggregators are mapped group-cyclically onto OSTs.
//   - DriverPLFS: the PLFS driver (ad_plfs). The N-to-1 file becomes N
//     per-rank logs in a backend container (see package plfs).
//
// Collective writes use two-phase I/O: one aggregator per compute node,
// each with a calibrated dispatch capacity, writing stripe-aligned file
// domains. All ranks of the communicator must call the collective methods
// in the same order.
package mpiio

import (
	"fmt"

	"pfsim/internal/cluster"
	"pfsim/internal/flow"
	"pfsim/internal/lustre"
	"pfsim/internal/mpi"
	"pfsim/internal/plfs"
	"pfsim/internal/sim"
)

// Driver selects the ADIO driver backing a file.
type Driver int

const (
	// DriverUFS is the generic POSIX driver (ad_ufs): hints ignored.
	DriverUFS Driver = iota
	// DriverLustre is the Lustre driver (ad_lustre): hints honoured.
	DriverLustre
	// DriverPLFS is the PLFS driver (ad_plfs): per-rank logs.
	DriverPLFS
)

// String names the driver as in ROMIO.
func (d Driver) String() string {
	switch d {
	case DriverUFS:
		return "ad_ufs"
	case DriverLustre:
		return "ad_lustre"
	case DriverPLFS:
		return "ad_plfs"
	default:
		return fmt.Sprintf("driver(%d)", int(d))
	}
}

// Hints mirrors the MPI-IO hints the paper tunes.
type Hints struct {
	// StripingFactor is the stripe count (0 = file system default).
	StripingFactor int
	// StripingUnitMB is the stripe size in MB (0 = default).
	StripingUnitMB float64
	// StripeOffset pins the first OST when positive; zero or negative
	// requests random placement. (Real Lustre allows pinning to OST 0;
	// the simulator sacrifices that corner so the zero value of Hints is
	// safe.)
	StripeOffset int
	// CBNodes caps the number of collective-buffering aggregators
	// (0 = one per compute node, the configuration used in the paper).
	CBNodes int
	// CBBufferMB is the collective buffer size (0 = platform default,
	// 16 MB in the paper).
	CBBufferMB float64
}

// NewHints returns hints with random placement (StripeOffset -1) and all
// other values defaulted.
func NewHints() Hints { return Hints{StripeOffset: -1} }

// File is an open simulated MPI-IO file.
type File struct {
	sys    *lustre.System
	comm   *mpi.Comm
	name   string
	driver Driver
	hints  Hints

	// Lustre/UFS state.
	lf       *lustre.File
	aggLinks []*flow.Link
	aggNodes []int

	// PLFS state.
	container *plfs.Container

	openSig *sim.Signal
	ops     []rankOp // comm rank → operation state, allocated on first use
	// opRing holds the rendezvous signals of rank-0-led operations, two
	// per kind, operation idx using opRing[kind][idx&1] armed as idx
	// (opArmed): every such operation starts with an allreduce, so no
	// rank reaches operation idx+2 before every rank has resumed from
	// idx, and a slot is never re-armed under a waiter. Signals are
	// named lazily, "<kind>:<file>:<idx>".
	opRing  [numOpKinds][2]*sim.Signal
	opArmed [numOpKinds][2]int
	opened  bool
	closed  bool
}

// opKind names a rank-0-led collective operation.
type opKind uint8

const (
	opPLFSWrite opKind = iota
	opWriteAll
	opReadAll
	numOpKinds
)

var opKindNames = [numOpKinds]string{"plfswrite", "writeall", "readall"}

// phase is where a rank's operation on a File resumes next.
type phase uint8

const (
	phaseOpenJoin   phase = iota // open: synchronise every rank
	phaseOpenDone                // open: all ranks joined
	phaseOpenMeta                // open, PLFS root: container metadata created
	phaseOpenLog                 // open, PLFS: create the rank's logs
	phaseOpLed                   // rank-0-led operation: rank 0 finished the work
	phaseOpFollow                // rank-0-led operation: rank 0 released the others
	phaseReadLogged              // PLFS read: the log replay finished
	phaseReadDone                // PLFS read: all ranks joined
	phaseIndepDone               // independent write: the streams drained
	phaseCloseJoin               // close: the rank's logs are flushed
	phaseCloseLead               // close: first barrier passed
	phaseCloseStat               // close, rank 0: final metadata update done
)

// rankOp is one rank's state on a File: its PLFS log and the operation in
// progress. A rank runs one operation at a time, so the caller's
// continuation is parked here and the operation's steps resume through
// step, stepF, stepErr and stepLog — method values bound once per rank
// and file, each on its first use — instead of a closure per step.
type rankOp struct {
	f     *File
	r     *mpi.Rank
	log   *plfs.RankLog
	phase phase
	kind  opKind  // the current rank-0-led operation
	seq   int32   // the rank's rank-0-led operations so far
	xfer  float64 // the current operation's transfer size
	k     func()
	kErr  func(error)

	step    func()
	stepF   func(float64)
	stepErr func(error)
	stepLog func(*plfs.RankLog, error)
}

// NewFile prepares a file handle shared by a communicator. It performs no
// simulated work; every rank of comm must then call OpenK.
func NewFile(sys *lustre.System, comm *mpi.Comm, name string, driver Driver, hints Hints) *File {
	return &File{
		sys:     sys,
		comm:    comm,
		name:    name,
		driver:  driver,
		hints:   hints,
		openSig: sys.Engine().NewSignal("open:" + name),
	}
}

// op returns r's operation state, binding step on first use.
//
//pfsim:allocok per-file rank state: one slab per file and one binding per stepper and rank
func (f *File) op(r *mpi.Rank) *rankOp {
	if f.ops == nil {
		f.ops = make([]rankOp, f.comm.Size())
	}
	o := &f.ops[f.comm.RankOf(r)]
	if o.r == nil {
		o.f, o.r = f, r
		o.step = o.stepK
	}
	return o
}

// bindErr binds stepErr on its first use.
//
//pfsim:allocok one binding per rank and file
func (o *rankOp) bindErr() func(error) {
	if o.stepErr == nil {
		o.stepErr = o.stepErrK
	}
	return o.stepErr
}

// sig returns the rendezvous signal of the rank's current rank-0-led
// operation.
func (o *rankOp) sig() *sim.Signal { return o.f.opRing[o.kind][(o.seq-1)&1] }

// finish clears the parked continuation and runs it with err.
func (o *rankOp) finish(err error) {
	k := o.kErr
	o.kErr = nil
	k(err)
}

// stepK advances the rank's operation to its next phase.
//
//pfsim:hotpath
func (o *rankOp) stepK() {
	f, r := o.f, o.r
	t := r.Task()
	switch o.phase {
	case phaseOpenJoin:
		o.phase = phaseOpenDone
		f.comm.BarrierK(r, o.step)
	case phaseOpenDone:
		f.opened = true
		o.finish(nil)
	case phaseOpenMeta:
		f.openSig.Fire()
		o.phase = phaseOpenLog
		o.stepK()
	case phaseOpenLog:
		if !f.openSig.Fired() {
			f.openSig.Await(t, o.step)
			return
		}
		if o.stepLog == nil {
			o.stepLog = o.stepLogK //pfsim:allocok one binding per PLFS rank and file
		}
		f.container.OpenRankK(t, r.ID(), o.stepLog)
	case phaseOpLed:
		o.sig().Fire()
		o.finish(nil)
	case phaseOpFollow, phaseReadDone, phaseIndepDone:
		o.finish(nil)
	case phaseCloseJoin:
		o.phase = phaseCloseLead
		f.comm.BarrierK(r, o.step)
	case phaseCloseLead:
		if f.comm.RankOf(r) == 0 && !f.closed {
			o.phase = phaseCloseStat
			f.sys.MDS().StatK(t, o.step)
			return
		}
		k := o.k
		o.k = nil
		f.comm.BarrierK(r, k)
	case phaseCloseStat:
		f.closed = true
		k := o.k
		o.k = nil
		f.comm.BarrierK(r, k)
	}
}

// stepTotal continues a rank-0-led operation with the allreduced volume:
// rank 0 does the work and then releases the others, who wait on the
// operation's signal.
//
//pfsim:hotpath
func (o *rankOp) stepTotal(total float64) {
	f, r := o.f, o.r
	t := r.Task()
	sig := f.opSignal(o)
	if f.comm.RankOf(r) != 0 {
		o.phase = phaseOpFollow
		sig.Await(t, o.step)
		return
	}
	o.phase = phaseOpLed
	if o.kind == opPLFSWrite {
		f.container.BatchWriteK(t, total/float64(f.comm.Size()), o.xfer, o.bindErr()) //pfsim:allocok bindErr (inlined) binds once per rank and file
		return
	}
	f.collectiveWriteK(t, total, o.step)
}

// stepErrK resumes the rank's operation after a step that can fail.
//
//pfsim:hotpath
func (o *rankOp) stepErrK(err error) {
	switch o.phase {
	case phaseOpLed:
		o.sig().Fire()
		o.finish(err)
	case phaseReadLogged:
		if err != nil {
			o.finish(err)
			return
		}
		o.phase = phaseReadDone
		o.f.comm.BarrierK(o.r, o.step)
	}
}

// stepLogK records the rank's freshly opened PLFS log and joins the open.
//
//pfsim:hotpath
func (o *rankOp) stepLogK(rl *plfs.RankLog, err error) {
	if err != nil {
		o.finish(err)
		return
	}
	o.log = rl
	o.phase = phaseOpenJoin
	o.stepK()
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Driver returns the backing driver.
func (f *File) Driver() Driver { return f.driver }

// Layout returns the Lustre layout (nil for PLFS files, which have one
// layout per rank log).
func (f *File) Layout() *lustre.Layout {
	if f.lf == nil {
		return nil
	}
	return &f.lf.Layout
}

// Container returns the PLFS container (nil for non-PLFS files).
func (f *File) Container() *plfs.Container { return f.container }

// spec translates hints to a create request, enforcing driver semantics:
// ad_ufs cannot pass striping hints through.
func (f *File) spec() lustre.StripeSpec {
	s := lustre.DefaultSpec()
	if f.driver == DriverLustre {
		s.Count = f.hints.StripingFactor
		s.SizeMB = f.hints.StripingUnitMB
		if f.hints.StripeOffset > 0 {
			s.OffsetOST = f.hints.StripeOffset
		}
	}
	return s
}

// OpenK opens the file collectively: rank 0 creates it (and, for PLFS, the
// container metadata), every PLFS rank creates its logs, and all ranks
// synchronise before k receives the result — MPI_File_open semantics.
func (f *File) OpenK(r *mpi.Rank, k func(error)) {
	t := r.Task()
	o := f.op(r)
	o.kErr = k
	isRoot := f.comm.RankOf(r) == 0
	switch f.driver {
	case DriverPLFS:
		if isRoot {
			f.container = plfs.NewContainer(f.sys, f.name)
			o.phase = phaseOpenMeta
			f.container.CreateMetaK(t, o.step)
			return
		}
		o.phase = phaseOpenLog
		o.stepK()
	default:
		o.phase = phaseOpenJoin
		if isRoot {
			f.sys.MDS().CreateK(t, f.name, f.spec(), func(lf *lustre.File, err error) {
				if err != nil {
					o.finish(err)
					return
				}
				f.lf = lf
				f.buildAggregators()
				f.openSig.Fire()
				o.stepK()
			})
			return
		}
		f.openSig.Await(t, o.step)
	}
}

// buildAggregators creates the collective-buffering dispatch links: one
// aggregator on each distinct compute node of the communicator, bounded by
// the cb_nodes hint. The stripe-aware ad_lustre driver additionally caps
// aggregators at the stripe count (each OST gets a dedicated owner when
// possible) and gains the RPC-pipelining factor for wide stripings; the
// generic ad_ufs driver always uses every node. Capacities carry the
// stripe-size dispatch efficiency and the system's run-to-run jitter.
func (f *File) buildAggregators() {
	plat := f.sys.Platform()
	seen := make(map[int]bool)
	var nodes []int
	for _, wr := range f.comm.WorldRanks() {
		n := f.comm.NodeOfWorldRank(wr)
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	if f.hints.CBNodes > 0 && f.hints.CBNodes < len(nodes) {
		nodes = nodes[:f.hints.CBNodes]
	}
	// The aggregator dispatches in chunks of at most the collective buffer,
	// so a small cb_buffer_size hint throttles dispatch like small stripes.
	chunk := f.lf.Layout.SizeMB
	if cb := f.cbBufferMB(); chunk > cb {
		// Stripes beyond the buffer still stream contiguously per OST; the
		// dirty-window term is governed by the stripe, the per-RPC term by
		// the buffer. Approximate with the buffer-limited chunk only when
		// the buffer is smaller than the platform default.
		if cb < plat.CollBufferMB {
			chunk = cb
		}
	}
	rate := plat.AggregatorMBs * plat.AggregatorEfficiency(chunk)
	if f.driver == DriverLustre {
		if r := f.lf.Layout.StripeCount(); r < len(nodes) {
			nodes = nodes[:r]
		}
		rate *= plat.AggregatorPipelineFactor(f.lf.Layout.StripeCount())
	}
	f.aggNodes = nodes
	f.aggLinks = make([]*flow.Link, len(nodes))
	for i, n := range nodes {
		cap := rate * f.sys.RNG().Jitter(plat.JitterCV)
		// The shard prefix keeps aggregator labels distinct when several
		// file systems with identically labelled jobs share one net.
		f.aggLinks[i] = f.sys.Net().NewLink(
			fmt.Sprintf("%sagg:%s:%d", f.sys.Prefix(), f.name, n), flow.Const(cap))
	}
}

// WriteAllK performs a collective write: every rank contributes sizeMB.
// For Lustre/UFS the data moves through two-phase I/O; for PLFS the
// symmetric per-rank log streams merge into one flow per OST (see
// plfs.Container.BatchWriteK), the reduction both synchronising the ranks
// and yielding the uniform per-rank volume the merge assumes. k runs with
// the result once the operation completes on every rank.
func (f *File) WriteAllK(r *mpi.Rank, sizeMB, transferMB float64, k func(error)) {
	if err := f.checkWriteAll(sizeMB, transferMB); err != nil {
		k(err)
		return
	}
	kind := opWriteAll
	if f.driver == DriverPLFS {
		kind = opPLFSWrite
	}
	f.ledK(r, kind, sizeMB, transferMB, k)
}

// ledK runs a rank-0-led operation: the ranks allreduce their volumes,
// then rank 0 moves the total (stepTotal) while the others wait.
func (f *File) ledK(r *mpi.Rank, kind opKind, sizeMB, transferMB float64, k func(error)) {
	o := f.op(r)
	o.kind, o.xfer, o.kErr = kind, transferMB, k
	if o.stepF == nil {
		o.stepF = o.stepTotal //pfsim:allocok one binding per rank and file
	}
	f.comm.AllreduceSumK(r, sizeMB, o.stepF)
}

func (f *File) checkWriteAll(sizeMB, transferMB float64) error {
	if !f.opened || f.closed {
		return fmt.Errorf("mpiio: WriteAll on %q before Open or after Close", f.name)
	}
	if sizeMB < 0 || transferMB <= 0 {
		return fmt.Errorf("mpiio: bad WriteAll size=%v transfer=%v", sizeMB, transferMB)
	}
	return nil
}

// opSignal returns the rendezvous signal for the rank's next rank-0-led
// operation, arming its ring slot on the operation's first arrival. All
// ranks issue their operations in the same order, so the per-rank
// sequence number matches arrivals of one operation across the
// communicator.
func (f *File) opSignal(o *rankOp) *sim.Signal {
	idx := int(o.seq)
	o.seq++
	slot := &f.opRing[o.kind][idx&1]
	if *slot == nil {
		*slot = f.sys.Engine().NewSignal(opKindNames[o.kind] + ":" + f.name + ":") //pfsim:allocok ring fill on the slot's first use, reused for the file's lifetime
	} else if f.opArmed[o.kind][idx&1] == idx {
		return *slot
	}
	(*slot).Rearm(idx)
	f.opArmed[o.kind][idx&1] = idx
	return *slot
}

// collectiveWriteK launches the two-phase flows for one collective write
// of totalMB and runs k when they drain.
//
// ROMIO divides the file into equal-volume per-aggregator domains, so
// every aggregator carries total/A. With more aggregators than stripes
// (generic ad_ufs at the default 2-stripe layout), aggregator j's domain
// lands on OST j mod R; with at least as many stripes as aggregators
// (stripe-aware ad_lustre, A = min(nodes, R)), aggregator j owns OSTs
// {j, j+A, ...} group-cyclically and spreads its domain evenly across
// them.
func (f *File) collectiveWriteK(t *sim.Task, totalMB float64, k func()) {
	if totalMB <= 0 {
		k()
		return
	}
	sim.AwaitAll(t, flow.Dones(f.sys.StartWrites(f.collectiveReqs(totalMB))), k) //pfsim:allocok the batch's flows and their signal list, once per collective operation
}

// collectiveReqs builds the per-aggregator two-phase write requests — the
// synchronous domain decomposition of collectiveWriteK.
//
//pfsim:allocok one request batch and its stream names per collective operation
func (f *File) collectiveReqs(totalMB float64) []lustre.WriteReq {
	layout := f.lf.Layout
	A := len(f.aggLinks)
	R := layout.StripeCount()
	rpc := layout.SizeMB
	if cb := f.cbBufferMB(); rpc > cb {
		rpc = cb
	}
	// All per-aggregator stripe streams open at the same virtual instant,
	// so they are admitted as one batch: a single coalesced rate solve
	// instead of one per stream.
	var reqs []lustre.WriteReq
	add := func(agg int, ost *lustre.OST, mb float64) {
		reqs = append(reqs, lustre.WriteReq{
			Name:   fmt.Sprintf("cw:%s:a%d:o%d", f.name, agg, ost.ID()),
			SizeMB: mb,
			OST:    ost,
			Opts: lustre.WriteOpts{
				Node:   f.aggNodes[agg],
				Class:  cluster.ClassCollective,
				FileID: f.lf.ID,
				RPCMB:  rpc,
				Via:    []*flow.Link{f.aggLinks[agg]},
			},
		})
	}
	domain := totalMB / float64(A)
	if A >= R {
		for j := 0; j < A; j++ {
			add(j, f.sys.OST(layout.OSTs[j%R]), domain)
		}
	} else {
		for j := 0; j < A; j++ {
			owned := (R - j + A - 1) / A // OSTs {j, j+A, ...}
			share := domain / float64(owned)
			for k := j; k < R; k += A {
				add(j, f.sys.OST(layout.OSTs[k]), share)
			}
		}
	}
	return reqs
}

func (f *File) cbBufferMB() float64 {
	if f.hints.CBBufferMB > 0 {
		return f.hints.CBBufferMB
	}
	return f.sys.Platform().CollBufferMB
}

// ReadAllK performs a collective read of sizeMB per rank. The fluid model
// is direction-agnostic, so reads exercise the same aggregator and OST
// service paths as writes; PLFS reads replay each rank's log through its
// index (see plfs.RankLog.ReadK).
func (f *File) ReadAllK(r *mpi.Rank, sizeMB, transferMB float64, k func(error)) {
	if err := f.checkReadAll(sizeMB, transferMB); err != nil {
		k(err)
		return
	}
	if f.driver != DriverPLFS {
		f.ledK(r, opReadAll, sizeMB, transferMB, k)
		return
	}
	o := f.op(r)
	if o.log == nil {
		k(fmt.Errorf("mpiio: rank %d has no PLFS log", r.ID()))
		return
	}
	o.kErr = k
	o.phase = phaseReadLogged
	o.log.ReadK(r.Task(), r.Node(), sizeMB, o.bindErr()) //pfsim:allocok bindErr (inlined) binds once per rank and file
}

func (f *File) checkReadAll(sizeMB, transferMB float64) error {
	if !f.opened {
		return fmt.Errorf("mpiio: ReadAll on %q before Open", f.name)
	}
	if sizeMB < 0 || transferMB <= 0 {
		return fmt.Errorf("mpiio: bad ReadAll size=%v transfer=%v", sizeMB, transferMB)
	}
	return nil
}

// FileID returns the backing Lustre file's identity (its lock domain), or
// 0 for PLFS files whose logs carry per-rank identities.
func (f *File) FileID() int {
	if f.lf == nil {
		return 0
	}
	return f.lf.ID
}

// WriteIndependentK writes sizeMB from this rank without coordination
// (MPI_File_write_at): the rank's region spreads over the file's stripes,
// and because nothing aligns accesses, each writing rank forms its own
// lock domain on every OST it touches — the cross-client extent-lock
// conflicts collective buffering exists to avoid.
func (f *File) WriteIndependentK(r *mpi.Rank, sizeMB, transferMB float64, k func(error)) {
	if !f.opened || f.closed {
		k(fmt.Errorf("mpiio: WriteIndependent on %q before Open or after Close", f.name))
		return
	}
	t := r.Task()
	o := f.op(r)
	if f.driver == DriverPLFS {
		if o.log == nil {
			k(fmt.Errorf("mpiio: rank %d has no PLFS log", r.ID()))
			return
		}
		o.log.WriteK(t, r.Node(), sizeMB, transferMB, k)
		return
	}
	if sizeMB <= 0 {
		k(nil)
		return
	}
	o.kErr = k
	o.phase = phaseIndepDone
	sim.AwaitAll(t, flow.Dones(f.sys.StartWrites(f.independentReqs(r, sizeMB, transferMB))), o.step)
}

// independentReqs builds the per-OST streams of one rank's uncoordinated
// write, each in its own lock domain.
func (f *File) independentReqs(r *mpi.Rank, sizeMB, transferMB float64) []lustre.WriteReq {
	layout := f.lf.Layout
	shares := layout.BytesPerOST(sizeMB)
	rpc := transferMB
	if rpc > layout.SizeMB {
		rpc = layout.SizeMB
	}
	// Distinct pseudo-file ID per rank: independent writers conflict.
	lockDomain := f.lf.ID*1_000_000 + r.ID() + 1
	var reqs []lustre.WriteReq
	for k, mb := range shares {
		if mb <= 0 {
			continue
		}
		reqs = append(reqs, lustre.WriteReq{
			Name:   fmt.Sprintf("iw:%s:r%d:o%d", f.name, r.ID(), layout.OSTs[k]),
			SizeMB: mb,
			OST:    f.sys.OST(layout.OSTs[k]),
			Opts: lustre.WriteOpts{
				Node:   r.Node(),
				Class:  cluster.ClassCollective,
				FileID: lockDomain,
				RPCMB:  rpc,
			},
		})
	}
	return reqs
}

// CloseK closes the file collectively: PLFS ranks flush their index logs,
// rank 0 performs the final metadata update, and all ranks synchronise
// before k runs.
func (f *File) CloseK(r *mpi.Rank, k func()) {
	o := f.op(r)
	o.k = k
	o.phase = phaseCloseJoin
	if f.driver == DriverPLFS && o.log != nil {
		o.log.CloseK(r.Task(), o.step)
		return
	}
	o.stepK()
}
