package sim

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
// already-fired signal does not block.
type Signal struct {
	eng     *Engine
	name    string
	fired   bool
	waiters []waiter
}

// NewSignal creates a named signal on the engine.
func (e *Engine) NewSignal(name string) *Signal {
	return &Signal{eng: e, name: name}
}

// Fired reports whether Fire has been called.
func (s *Signal) Fired() bool { return s.fired }

// Fire marks the signal fired and schedules every waiter to resume at the
// current time. Firing twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	waiters := s.waiters
	s.waiters = nil
	for _, w := range waiters {
		s.eng.unblock(w)
		w.wake(s.eng)
	}
}

// unblock clears the deadlock-tracking entry for a woken waiter.
func (e *Engine) unblock(w waiter) {
	if w.t != nil {
		delete(e.blockedT, w.t)
	}
}
