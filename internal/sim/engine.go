// Package sim provides the discrete-event simulation engine that underpins
// pfsim. Virtual time is a float64 number of seconds. Events fire in
// (time, sequence) order, so simulations are fully deterministic. On top of
// the raw event queue the package offers inline tasks (Task): simulated
// processes written in continuation-passing style, whose blocking points
// (Task.Sleep, Signal.Await, Resource.AcquireTask) park a continuation on
// the event heap or a FIFO waiter list. Every continuation runs on the
// event loop's own goroutine, so there is no scheduling nondeterminism to
// introduce.
package sim

import (
	"fmt"
	"math"
	"sort"
)

// Event is a scheduled callback. It can be cancelled before it fires.
//
// Event records are pooled: once an event has fired or been cancelled, the
// engine may hand its record to a later Schedule call (see ScheduleAt).
// Cancelling or rescheduling an event that already fired stays a safe no-op
// only until the record is reused, so callers that retain an *Event across
// instants must drop (nil) their reference the moment the event fires —
// the discipline flow.Net follows with its dirty and completion events.
type Event struct {
	at        float64
	seq       int64
	index     int // heap index, -1 when not queued
	fn        func()
	cancelled bool
}

// Time returns the virtual time at which the event fires.
func (ev *Event) Time() float64 { return ev.at }

// eventHeap is the engine's queue: a binary min-heap of events ordered by
// (at, seq), each event knowing its own index. The sift operations are
// container/heap's, typed, so Push and Pop neither box through any nor
// dispatch Less and Swap through an interface.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h eventHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h eventHeap) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

func (h *eventHeap) push(ev *Event) {
	ev.index = len(*h)
	*h = append(*h, ev) //pfsim:allocok queue growth is bounded by the peak event population, then reuses capacity
	h.up(ev.index)
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() *Event {
	n := len(*h) - 1
	h.swap(0, n)
	h.down(0, n)
	return h.cut()
}

// remove takes the event at index i out of the queue.
func (h *eventHeap) remove(i int) {
	n := len(*h) - 1
	if n != i {
		h.swap(i, n)
		if !h.down(i, n) {
			h.up(i)
		}
	}
	h.cut()
}

// fix restores the heap order after the event at index i changed its key.
func (h eventHeap) fix(i int) {
	if !h.down(i, len(h)) {
		h.up(i)
	}
}

// cut drops the last slot, returning its event unindexed.
func (h *eventHeap) cut() *Event {
	old := *h
	n := len(old) - 1
	ev := old[n]
	old[n] = nil
	ev.index = -1
	*h = old[:n]
	return ev
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now     float64
	events  eventHeap
	seq     int64
	stopped bool

	tasks   int   // started, unfinished inline tasks
	blocked *Task // head of the parked-task list (see park)

	pollEvery int // call pollFn every this many fired events (0: never)
	pollCount int
	pollFn    func()

	// free holds fired/cancelled event records awaiting reuse, so a
	// steady-state simulation (the flow solver's flush-per-instant churn)
	// schedules events without touching the heap allocator.
	free []*Event

	// waitLists holds the emptied overflow waiter lists of fired
	// signals, reused by the next signal that parks a second waiter.
	waitLists [][]waiter
}

// SetPoll installs fn to run after every n fired events during Run — the
// hook cancellation watchers use to bound their wall-clock latency in
// the unit that actually passes wall-clock time (events processed), with
// zero effect on the simulation: no events are injected, virtual time
// and event order are untouched. fn must not mutate simulation state;
// reading external conditions and calling Stop is the intended use.
// n <= 0 or a nil fn removes the hook.
func (e *Engine) SetPoll(n int, fn func()) {
	if n <= 0 || fn == nil {
		e.pollEvery, e.pollFn, e.pollCount = 0, nil, 0
		return
	}
	e.pollEvery, e.pollFn, e.pollCount = n, fn, 0
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule queues fn to run after delay seconds (clamped at zero). It
// returns the event so callers may cancel it.
//
//pfsim:hotpath
//pfsim:taskctx
func (e *Engine) Schedule(delay float64, fn func()) *Event {
	if math.IsNaN(delay) {
		panic("sim: scheduled with NaN delay") //pfsim:allocok crash path: the boxed panic message never allocates on a live run
	}
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt queues fn to run at absolute virtual time at (clamped to now).
// The returned event's record comes from the engine's free list when one is
// available: scheduling allocates only while the in-flight event population
// is still growing, and a steady-state simulation runs allocation-free.
//
//pfsim:hotpath
//pfsim:taskctx
func (e *Engine) ScheduleAt(at float64, fn func()) *Event {
	if math.IsNaN(at) {
		// A NaN deadline compares false against everything, so it would
		// corrupt the event heap's ordering invariant silently instead of
		// failing here.
		panic("sim: scheduled at NaN time") //pfsim:allocok crash path: the boxed panic message never allocates on a live run
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	var ev *Event
	if k := len(e.free) - 1; k >= 0 {
		ev = e.free[k]
		e.free[k] = nil
		e.free = e.free[:k]
		*ev = Event{at: at, seq: e.seq, fn: fn, index: -1}
	} else {
		ev = &Event{at: at, seq: e.seq, fn: fn, index: -1} //pfsim:allocok event-pool growth: reused via Engine.free once fired
	}
	e.events.push(ev)
	return ev
}

// recycle returns a fired or cancelled event record to the free list. The
// record keeps cancelled=true while pooled, so a stale Cancel or Reschedule
// through a retained pointer stays a no-op until the record is reused.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.cancelled = true
	e.free = append(e.free, ev) //pfsim:allocok free-list growth is bounded by the peak event population
}

// Reschedule moves a pending event to fire at absolute virtual time at
// (clamped to now), re-sequencing it as if it had been cancelled and
// freshly scheduled: among events at the same instant it fires after
// everything already queued, exactly like Cancel followed by ScheduleAt,
// but without allocating a new event or paying two heap operations. This
// is the decrease-key path for callers that keep one long-lived event and
// move it — the flow solver's completion event — instead of
// cancel-and-repost churn. It returns false, and does nothing, when the
// event is nil, cancelled, or has already fired; callers then fall back
// to ScheduleAt.
func (e *Engine) Reschedule(ev *Event, at float64) bool {
	if math.IsNaN(at) {
		panic("sim: rescheduled to NaN time")
	}
	if ev == nil || ev.cancelled || ev.index < 0 {
		return false
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev.at = at
	ev.seq = e.seq
	e.events.fix(ev.index)
	return true
}

// Cancel removes a pending event; cancelling a fired or already-cancelled
// event is a no-op. The cancelled record returns to the engine's free list
// immediately — see the pooling contract on Event.
//
//pfsim:hotpath
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.cancelled || ev.index < 0 {
		if ev != nil {
			ev.cancelled = true
		}
		return
	}
	ev.cancelled = true
	e.events.remove(ev.index)
	e.recycle(ev)
}

// Stop makes the next (or current) Run return before firing another event.
// A Stop issued before Run starts is honoured: Run returns immediately
// without executing anything. Each Run/RunUntil return consumes at most one
// stop request, so the engine can be resumed afterwards.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether a stop request is pending.
func (e *Engine) Stopped() bool { return e.stopped }

// Run executes events until the queue empties or Stop is called. It returns
// an error if tasks remain blocked with no pending events (a simulation
// deadlock), listing the stuck tasks.
func (e *Engine) Run() error { return e.RunUntil(math.Inf(1)) }

// RunUntil executes events with fire time <= tmax. Virtual time never
// exceeds tmax. An earlier revision reset the stop flag on entry, which
// silently discarded a Stop issued before Run — launch-error paths that
// stop the engine synchronously (before Run begins) would run the whole
// simulation anyway and delay the error until completion.
//
//pfsim:hotpath
func (e *Engine) RunUntil(tmax float64) error {
	for !e.stopped && len(e.events) > 0 {
		if e.events[0].at > tmax {
			e.now = tmax
			return nil
		}
		ev := e.events.pop()
		if ev.cancelled {
			e.recycle(ev)
			continue
		}
		if ev.at > e.now {
			e.now = ev.at
		}
		fn := ev.fn
		fn()
		e.recycle(ev)
		if e.pollEvery > 0 {
			if e.pollCount++; e.pollCount >= e.pollEvery {
				e.pollCount = 0
				e.pollFn()
			}
		}
	}
	if e.stopped {
		e.stopped = false // consume the stop so the engine can be resumed
		return nil
	}
	if e.blocked != nil {
		return e.deadlockErr()
	}
	return nil
}

// deadlockErr builds the blocked-task report for RunUntil. It lives
// outside the event loop so the hot-path call-graph closure excludes
// this cold, allocation-heavy error path.
//
//pfsim:allocok cold error path: runs once, right before the simulation aborts
func (e *Engine) deadlockErr() error {
	var names []string
	for t := e.blocked; t != nil; t = t.next {
		names = append(names, fmt.Sprintf("%s (%s)", t.Name(), t.on))
	}
	sort.Strings(names)
	return fmt.Errorf("sim: deadlock at t=%.6f: %d blocked process(es): %v",
		e.now, len(names), names)
}

// Pending reports the number of queued (uncancelled) events. Cancel
// removes events from the queue eagerly, so the queue length is exactly
// that count — O(1), where earlier revisions scanned the whole heap on
// every call.
func (e *Engine) Pending() int { return len(e.events) }

// LiveTasks reports the number of inline tasks that have started and not
// yet finished.
func (e *Engine) LiveTasks() int { return e.tasks }
