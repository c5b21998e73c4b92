package sim

import "strconv"

// waiter is one parked entry in a Signal's waiter list or a Resource's
// queue: the continuation k, with t set when it belongs to a tracked task
// (nil for a bare subscription — see Signal.OnFired).
type waiter struct {
	t *Task
	k func()
}

// wake schedules the parked waiter to resume at the current virtual time.
func (w waiter) wake(e *Engine) {
	e.Schedule(0, w.k)
}

// Signal is a one-shot broadcast: tasks Await it, Fire wakes them all at
// the current virtual time (in deterministic order). Awaiting an
// already-fired signal does not block. Rearm makes a fired signal
// reusable.
type Signal struct {
	eng     *Engine
	label   string
	id      int // >= 0: appended to label on demand (see Rearm)
	fired   bool
	waiters []waiter
}

// NewSignal creates a named signal on the engine.
func (e *Engine) NewSignal(name string) *Signal {
	return &Signal{eng: e, label: name, id: -1}
}

// name returns the signal's name for deadlock reports, formatted on
// demand like Task.Name.
func (s *Signal) name() string {
	if s.id < 0 {
		return s.label
	}
	return s.label + strconv.Itoa(s.id)
}

// Fired reports whether Fire has been called.
func (s *Signal) Fired() bool { return s.fired }

// Fire marks the signal fired and schedules every waiter to resume at the
// current time. Firing twice is a no-op. The waiter list keeps its
// capacity, so a signal that is re-armed and fired again parks its next
// round of waiters without growing a new list.
//
//pfsim:hotpath
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for i, w := range s.waiters {
		s.eng.unblock(w.t)
		w.wake(s.eng)
		s.waiters[i] = waiter{}
	}
	s.waiters = s.waiters[:0]
}

// Rearm returns the signal to the unfired state, numbered id: from now
// on deadlock reports name it by its NewSignal name followed by id, so
// one signal reused for a sequence of rendezvous names the one a stuck
// task is waiting for. Awaits after Rearm park until the next Fire.
//
// Reuse is safe once no task can still act on the previous firing:
// Rearm changes nothing a woken waiter has already been scheduled with,
// but any state the caller publishes alongside the signal (a result the
// waiters read when they resume) must not be overwritten before every
// waiter of the previous firing has resumed and read it. Rearming a
// signal that still has parked waiters is a bug and panics.
func (s *Signal) Rearm(id int) {
	if len(s.waiters) > 0 {
		panic("sim: rearm of signal " + s.name() + " with parked waiters")
	}
	s.fired = false
	s.id = id
}

// blockedOn records what a parked task is stalled on, for the deadlock
// report: exactly one of sig and res is set while the task is parked,
// and both are nil otherwise. The description is assembled only if a
// report is actually produced — parking is on the dispatch hot path and
// must not format.
type blockedOn struct {
	sig *Signal   // "waiting" on a signal
	res *Resource // "queued on" a resource
}

func (on blockedOn) String() string {
	if on.sig != nil {
		return "waiting " + on.sig.name()
	}
	return "queued on " + on.res.name
}

// park records that t is stalled on on, linking it into the engine's
// blocked list. A task parked again before it is woken stays linked
// once; only what it is stalled on changes.
//
//pfsim:hotpath
func (e *Engine) park(t *Task, on blockedOn) {
	if t.on == (blockedOn{}) {
		t.next = e.blocked
		if e.blocked != nil {
			e.blocked.prev = t
		}
		e.blocked = t
	}
	t.on = on
}

// unblock clears the deadlock-tracking entry for a woken task. It is
// idempotent, and a nil task (a bare subscription) is a no-op.
//
//pfsim:hotpath
func (e *Engine) unblock(t *Task) {
	if t == nil || t.on == (blockedOn{}) {
		return
	}
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		e.blocked = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	t.prev, t.next, t.on = nil, nil, blockedOn{}
}
