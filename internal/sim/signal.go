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
//
// The first parked waiter is kept inline and the rest follow it in
// waiters, so the common single-waiter signal (a flow's Done awaited by
// its one task) parks without a waiter list at all; overflow lists are
// pooled by the engine (see Fire).
type Signal struct {
	eng     *Engine
	label   string
	id      int // >= 0: appended to label on demand (see Rearm)
	fired   bool
	first   waiter   // earliest parked waiter; k is nil when none
	waiters []waiter // later waiters, in park order
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
// current time, in park order. Firing twice is a no-op. The emptied
// overflow list goes back to the engine, which hands it to the next
// signal that parks a second waiter, so signals fired and re-armed (or
// made afresh) park their waiters without growing new lists.
//
//pfsim:hotpath
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	if w := s.first; w.k != nil {
		s.first = waiter{}
		s.eng.unblock(w.t)
		w.wake(s.eng)
	}
	if s.waiters == nil {
		return
	}
	for i, w := range s.waiters {
		s.eng.unblock(w.t)
		w.wake(s.eng)
		s.waiters[i] = waiter{}
	}
	s.eng.waitLists = append(s.eng.waitLists, s.waiters[:0]) //pfsim:allocok pool growth is bounded by the peak count of signals holding overflow lists
	s.waiters = nil
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
	if s.parked() > 0 {
		panic("sim: rearm of signal " + s.name() + " with parked waiters")
	}
	s.fired = false
	s.id = id
}

// add parks w behind every waiter already parked on the signal.
//
//pfsim:hotpath
func (s *Signal) add(w waiter) {
	if s.first.k == nil {
		s.first = w
		return
	}
	if s.waiters == nil {
		if k := len(s.eng.waitLists) - 1; k >= 0 {
			s.waiters = s.eng.waitLists[k]
			s.eng.waitLists[k] = nil
			s.eng.waitLists = s.eng.waitLists[:k]
		}
	}
	s.waiters = append(s.waiters, w) //pfsim:allocok waiter-list growth is bounded by the peak blocked population, then reuses pooled capacity
}

// parked reports the number of waiters parked on the signal.
func (s *Signal) parked() int {
	if s.first.k == nil {
		return 0
	}
	return 1 + len(s.waiters)
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
