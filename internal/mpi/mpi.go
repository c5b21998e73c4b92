// Package mpi provides a deterministic message-passing abstraction over the
// simulation engine: a world of ranks (one simulated process each, mapped
// to compute nodes like MPI ranks on Cab — CoresPerNode ranks per node),
// communicators with barrier/reduction/gather collectives, and
// communicator splitting. Collective calls must be made by every rank of a
// communicator in the same order, mirroring MPI semantics. Collectives
// charge a logarithmic latency model.
package mpi

import (
	"fmt"
	"math"
	"sort"

	"pfsim/internal/sim"
)

// DefaultCollectiveLatency is the per-tree-stage latency charged by
// collective operations (seconds); roughly an InfiniBand message latency.
const DefaultCollectiveLatency = 2e-6

// World is a set of ranks executing a common body.
type World struct {
	eng    *sim.Engine
	size   int
	nodeOf []int
	// CollectiveLatency is the per-stage latency of collective operations.
	CollectiveLatency float64

	world *Comm
	done  *sim.Signal
	left  int
}

// NewWorld creates a world of size ranks packed coresPerNode-to-a-node
// starting at firstNode. Jobs in multi-job experiments use disjoint node
// ranges.
func NewWorld(eng *sim.Engine, size, coresPerNode, firstNode int) *World {
	if size <= 0 || coresPerNode <= 0 {
		panic(fmt.Sprintf("mpi: bad world geometry size=%d cores=%d", size, coresPerNode))
	}
	w := &World{
		eng:               eng,
		size:              size,
		nodeOf:            make([]int, size),
		CollectiveLatency: DefaultCollectiveLatency,
		done:              eng.NewSignal("world-done"),
		left:              size,
	}
	for r := 0; r < size; r++ {
		w.nodeOf[r] = firstNode + r/coresPerNode
	}
	ranks := make([]int, size)
	for i := range ranks {
		ranks[i] = i
	}
	w.world = newComm(w, "world", ranks)
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Comm returns the world communicator.
func (w *World) Comm() *Comm { return w.world }

// NodeOf returns the compute node hosting a world rank.
func (w *World) NodeOf(rank int) int { return w.nodeOf[rank] }

// Nodes returns the number of distinct nodes the world spans.
func (w *World) Nodes() int {
	return w.nodeOf[w.size-1] - w.nodeOf[0] + 1
}

// Done fires once every rank has finished.
func (w *World) Done() *sim.Signal { return w.done }

// LaunchTasks starts every rank as an inline engine task at the current
// virtual time. The body is written in continuation-passing style against
// the rank's Task and the K-suffixed collectives, and must arrange for
// done to be called exactly once when the rank's workload is complete.
// Run the engine to execute the ranks; Done fires when every rank has
// finished.
//
//pfsim:taskctx
func (w *World) LaunchTasks(body func(r *Rank, done func())) {
	for i := 0; i < w.size; i++ {
		rank := &Rank{world: w, id: i}
		rank.wakeFn = rank.wake
		rank.task = w.eng.StartTask(0, "rank", i, func(*sim.Task) {
			body(rank, rank.finish)
		})
	}
}

// Rank is one simulated MPI process.
//
// A rank blocks in at most one collective at a time, so the continuation
// it parks there lives on the rank itself, with the rendezvous it reads
// on resuming: a waiting rank parks wakeFn, and so does a last arriver
// paying the tree latency. wakeFn is bound once when the rank starts
// instead of wrapping every call's continuation in a fresh closure.
type Rank struct {
	world *World
	id    int
	task  *sim.Task

	rv     *rendezvous   // the collective whose continuation is parked
	k      func()        // parked barrier continuation
	kf     func(float64) // parked reduction continuation
	fire   bool          // a last arriver's: fire rv before continuing
	wakeFn func()        // bound wake
}

// hold parks the rank's continuation for rendezvous rv; exactly one of k
// and kf is set, and fire marks a last arriver's release.
func (r *Rank) hold(rv *rendezvous, k func(), kf func(float64), fire bool) {
	r.rv, r.k, r.kf, r.fire = rv, k, kf, fire
}

// wake resumes the parked continuation: a last arriver first fires the
// signal releasing the others, and a reduction receives the result.
func (r *Rank) wake() {
	rv, k, kf, fire := r.rv, r.k, r.kf, r.fire
	r.hold(nil, nil, nil, false)
	if fire {
		rv.sig.Fire()
	}
	if kf != nil {
		kf(rv.f)
		return
	}
	k()
}

// ID returns the world rank number.
func (r *Rank) ID() int { return r.id }

// Node returns the hosting compute node.
func (r *Rank) Node() int { return r.world.nodeOf[r.id] }

// Task returns the underlying inline task.
func (r *Rank) Task() *sim.Task { return r.task }

// finish retires the rank; passed to the LaunchTasks body as its done
// continuation.
func (r *Rank) finish() {
	r.task.Finish()
	r.world.left--
	if r.world.left == 0 {
		r.world.done.Fire()
	}
}

// World returns the rank's world.
func (r *Rank) World() *World { return r.world }

// Comm is a communicator over a subset of world ranks.
type Comm struct {
	world *World
	label string
	ranks []int       // world rank ids, comm-rank order
	index map[int]int // world rank → comm rank
	// byWorld lists comm ranks in ascending world-rank order, the order
	// AllreduceSumK adds in; nil when that is comm order already.
	byWorld []int

	seq  []int // comm rank → collective calls issued
	ring [2]*rendezvous
}

func newComm(w *World, label string, ranks []int) *Comm {
	c := &Comm{
		world: w,
		label: label,
		ranks: ranks,
		index: make(map[int]int, len(ranks)),
		seq:   make([]int, len(ranks)),
	}
	for i, r := range ranks {
		c.index[r] = i
	}
	if !sort.IntsAreSorted(ranks) {
		c.byWorld = make([]int, len(ranks))
		for i := range c.byWorld {
			c.byWorld[i] = i
		}
		sort.Slice(c.byWorld, func(a, b int) bool { return ranks[c.byWorld[a]] < ranks[c.byWorld[b]] })
	}
	return c
}

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.ranks) }

// Label returns the communicator's diagnostic name.
func (c *Comm) Label() string { return c.label }

// RankOf returns r's rank within the communicator, or -1 if not a member.
func (c *Comm) RankOf(r *Rank) int {
	if i, ok := c.index[r.id]; ok {
		return i
	}
	return -1
}

// WorldRanks returns the member world ranks in comm order.
func (c *Comm) WorldRanks() []int {
	out := make([]int, len(c.ranks))
	copy(out, c.ranks)
	return out
}

// NodeOfWorldRank returns the compute node hosting a member world rank.
func (c *Comm) NodeOfWorldRank(wr int) int { return c.world.nodeOf[wr] }

// rendezvous matches one collective call across the communicator.
//
// Each communicator keeps a ring of two, collective seq using ring[seq&1].
// Two suffice: no rank can arrive at collective seq+2 until every rank
// has arrived at seq+1, which each does only after resuming from seq and
// reading its result, so a slot is never reused while a waiter of its
// previous collective has yet to read it.
type rendezvous struct {
	arrived int
	sig     *sim.Signal // re-armed by the first arriver of each use
	vals    []float64   // comm rank → contribution
	f       float64     // the typed reductions' result
	result  any         // the generic collectives' result
}

// arrive registers one rank's contribution to its next collective and
// reports whether this rank completed the rendezvous (it is then the
// "last arriver" responsible for finalizing and releasing the others).
//
//pfsim:hotpath
func (c *Comm) arrive(r *Rank, val float64) (rv *rendezvous, last bool) {
	i := c.RankOf(r)
	if i < 0 {
		panic(fmt.Sprintf("mpi: rank %d not in comm %q", r.id, c.label)) //pfsim:allocok crash path: the formatted panic message never allocates on a live run
	}
	seq := c.seq[i]
	c.seq[i]++
	rv = c.ring[seq&1]
	if rv == nil {
		rv = &rendezvous{ //pfsim:allocok ring fill on the slot's first use, reused for the comm's lifetime
			sig:  c.world.eng.NewSignal(c.label + "-coll-"), //pfsim:allocok ring fill (see above)
			vals: make([]float64, len(c.ranks)),             //pfsim:allocok ring fill (see above)
		}
		c.ring[seq&1] = rv
	}
	if rv.arrived == 0 {
		rv.sig.Rearm(seq)
	}
	rv.vals[i] = val
	rv.arrived++
	if rv.arrived < len(c.ranks) {
		return rv, false
	}
	rv.arrived = 0
	return rv, true
}

// release is the last arriver's side of a rendezvous: pay the tree
// latency (one scheduled event), fire the signal releasing the others,
// then continue inline with k before the woken waiters' events fire.
//
//pfsim:hotpath
func (c *Comm) release(r *Rank, rv *rendezvous, k func()) {
	if lat := c.latency(); lat > 0 {
		r.hold(rv, k, nil, true)
		r.task.Sleep(lat, r.wakeFn)
		return
	}
	rv.sig.Fire()
	k()
}

// collectiveK is the generic path for the collectives whose result is
// not a float64: every rank contributes a value; the last arriver
// computes the result via finalize (receiving contributions in comm-rank
// order) and releases the others. Every rank receives the result through
// its continuation k.
func (c *Comm) collectiveK(r *Rank, val float64, finalize func([]float64) any, k func(any)) {
	rv, last := c.arrive(r, val)
	if !last {
		rv.sig.Await(r.task, func() { k(rv.result) })
		return
	}
	rv.result = finalize(rv.vals)
	c.release(r, rv, func() { k(rv.result) })
}

// reduceK is the shared float64 path of the typed reductions: op folds
// the contributions, indexed by comm rank, into the result every rank
// receives through k. Waiters park k on their rank and resume through
// the rank's bound wakeFn; the last arriver releases the others as
// release does. Neither side wraps k in a closure.
//
//pfsim:hotpath
func (c *Comm) reduceK(r *Rank, v float64, op func(*Comm, []float64) float64, k func(float64)) {
	rv, last := c.arrive(r, v)
	if !last {
		r.hold(rv, nil, k, false)
		rv.sig.Await(r.task, r.wakeFn)
		return
	}
	rv.f = op(c, rv.vals)
	if lat := c.latency(); lat > 0 {
		r.hold(rv, nil, k, true)
		r.task.Sleep(lat, r.wakeFn)
		return
	}
	rv.sig.Fire()
	k(rv.f)
}

func (c *Comm) latency() float64 {
	n := len(c.ranks)
	if n <= 1 {
		return 0
	}
	stages := math.Ceil(math.Log2(float64(n)))
	return c.world.CollectiveLatency * stages
}

// reduceMin and reduceMax scan in comm-rank order, so among equal
// contributions (-0 and +0) the lowest comm rank's wins.
func reduceMin(_ *Comm, vals []float64) float64 {
	min := math.Inf(1)
	for _, x := range vals {
		if x < min {
			min = x
		}
	}
	return min
}

func reduceMax(_ *Comm, vals []float64) float64 {
	max := math.Inf(-1)
	for _, x := range vals {
		if x > max {
			max = x
		}
	}
	return max
}

// reduceSum adds in ascending world-rank order for bit-exact determinism
// whatever the comm order.
func reduceSum(c *Comm, vals []float64) float64 {
	sum := 0.0
	if c.byWorld == nil {
		for _, x := range vals {
			sum += x
		}
		return sum
	}
	for _, i := range c.byWorld {
		sum += vals[i]
	}
	return sum
}

func finalizeGather(vals []float64) any {
	out := make([]float64, len(vals))
	copy(out, vals)
	return out
}

// BarrierK runs k once every comm member has arrived.
//
//pfsim:hotpath
func (c *Comm) BarrierK(r *Rank, k func()) {
	rv, last := c.arrive(r, 0)
	if !last {
		rv.sig.Await(r.task, k)
		return
	}
	c.release(r, rv, k)
}

// AllreduceMinK delivers the minimum contribution across the communicator
// to k.
func (c *Comm) AllreduceMinK(r *Rank, v float64, k func(float64)) {
	c.reduceK(r, v, reduceMin, k)
}

// AllreduceMaxK delivers the maximum contribution across the communicator
// to k.
func (c *Comm) AllreduceMaxK(r *Rank, v float64, k func(float64)) {
	c.reduceK(r, v, reduceMax, k)
}

// AllreduceSumK delivers the sum of contributions across the communicator
// to k.
func (c *Comm) AllreduceSumK(r *Rank, v float64, k func(float64)) {
	c.reduceK(r, v, reduceSum, k)
}

// AllGatherK delivers every rank's contribution in comm-rank order to k.
func (c *Comm) AllGatherK(r *Rank, v float64, k func([]float64)) {
	c.collectiveK(r, v, finalizeGather, func(res any) { k(res.([]float64)) })
}

// packSplit encodes color/key into the float contribution losslessly
// (both are small integers in practice; guard anyway).
func packSplit(color, key int) float64 {
	if color < 0 || color > 1<<20 || key < -(1<<20) || key > 1<<20 {
		panic("mpi: Split color/key out of supported range")
	}
	return float64(color)*(1<<21) + float64(key+(1<<20))
}

// finalizeSplit builds the sub-communicators, returned indexed by comm
// rank.
func (c *Comm) finalizeSplit(vals []float64) any {
	type member struct{ color, key, world, rank int }
	members := make([]member, len(vals))
	for i, pv := range vals {
		col := int(pv / (1 << 21))
		k := int(pv-float64(col)*(1<<21)) - (1 << 20)
		members[i] = member{col, k, c.ranks[i], i}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].color != members[j].color {
			return members[i].color < members[j].color
		}
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].world < members[j].world
	})
	comms := make([]*Comm, len(vals))
	for lo := 0; lo < len(members); {
		hi := lo + 1
		for hi < len(members) && members[hi].color == members[lo].color {
			hi++
		}
		ranks := make([]int, hi-lo)
		for i, m := range members[lo:hi] {
			ranks[i] = m.world
		}
		sub := newComm(c.world, fmt.Sprintf("%s/c%d", c.label, members[lo].color), ranks)
		for _, m := range members[lo:hi] {
			comms[m.rank] = sub
		}
		lo = hi
	}
	return comms
}

// SplitK partitions the communicator by color, ordering each new
// communicator by (key, world rank) — MPI_Comm_split semantics. Every
// member must call SplitK; each receives its sub-communicator through k.
func (c *Comm) SplitK(r *Rank, color, key int, k func(*Comm)) {
	c.collectiveK(r, packSplit(color, key), c.finalizeSplit, func(res any) {
		k(res.([]*Comm)[c.RankOf(r)])
	})
}
