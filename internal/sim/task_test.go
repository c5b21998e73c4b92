package sim

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// TestTaskSleepChain: a task's continuation chain advances virtual time
// one Sleep at a time, and Finish retires it.
func TestTaskSleepChain(t *testing.T) {
	e := NewEngine()
	var times []float64
	tk := e.StartTask(0.5, "worker", 0, func(t *Task) {
		times = append(times, t.Now())
		t.Sleep(1, func() {
			times = append(times, t.Now())
			t.Sleep(2, func() {
				times = append(times, t.Now())
				t.Finish()
			})
		})
	})
	if e.LiveTasks() != 1 {
		t.Fatalf("LiveTasks = %d before run, want 1", e.LiveTasks())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 1.5, 3.5}
	if len(times) != len(want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("times[%d] = %v, want %v", i, times[i], want[i])
		}
	}
	if !tk.Done() || e.LiveTasks() != 0 {
		t.Errorf("task not retired: done=%v live=%d", tk.Done(), e.LiveTasks())
	}
	if tk.Name() != "worker0" {
		t.Errorf("Name = %q, want worker0", tk.Name())
	}
}

// TestTaskAwaitFiredIsSynchronous: awaiting an already-fired signal runs
// the continuation inline without touching the event queue.
func TestTaskAwaitFiredIsSynchronous(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("up")
	s.Fire()
	ran := false
	e.StartTask(0, "t", -1, func(tk *Task) {
		s.Await(tk, func() { ran = true })
		if !ran {
			t.Error("Await on fired signal deferred its continuation")
		}
		tk.Finish()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSignalMixedWaitersFIFO parks tracked tasks and an untracked OnFired
// subscription on one signal in interleaved order: Fire must wake them
// strictly in park order, all at the fire instant.
func TestSignalMixedWaitersFIFO(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("go")
	var order []string
	woke := func(name string) { order = append(order, fmt.Sprintf("%s@%v", name, e.Now())) }
	e.StartTask(0, "t", 0, func(tk *Task) {
		s.Await(tk, func() {
			woke(tk.Name())
			tk.Finish()
		})
	})
	e.Schedule(0, func() { s.OnFired(func() { woke("sub1") }) })
	e.StartTask(0, "t", 2, func(tk *Task) {
		tk.Sleep(0, func() { // park after sub1 (start order alone would tie)
			s.Await(tk, func() {
				woke(tk.Name())
				tk.Finish()
			})
		})
	})
	e.Schedule(1, s.Fire)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"t0@1", "sub1@1", "t2@1"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order[%d] = %s, want %s", i, order[i], want[i])
		}
	}
}

// TestOnFiredSubscription: a subscription runs when the signal fires, and
// a late subscriber (after the fire) still observes the edge — via an
// event at the current instant, never synchronously inside OnFired.
func TestOnFiredSubscription(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("done")
	var at []float64
	s.OnFired(func() { at = append(at, e.Now()) })
	e.Schedule(2, s.Fire)
	e.Schedule(3, func() {
		sync := false
		s.OnFired(func() { sync = true; at = append(at, e.Now()) })
		if sync {
			t.Error("late OnFired ran synchronously; must go through the queue")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(at) != 2 || at[0] != 2 || at[1] != 3 {
		t.Errorf("subscriptions fired at %v, want [2 3]", at)
	}
}

// TestAwaitAllMatchesWaitAll pins AwaitAll's sequential in-order wait
// semantics against a scattered fire schedule: b fires first, then c,
// then a. The in-order scan parks on a only; when a fires at t=3, b and c
// are already up and are skipped synchronously, so the task resumes
// inside a's wake event — five events in all, and no second park.
func TestAwaitAllMatchesWaitAll(t *testing.T) {
	e := NewEngine()
	sigs := []*Signal{e.NewSignal("a"), e.NewSignal("b"), e.NewSignal("c")}
	var log []string
	fire := func(s *Signal) func() {
		return func() {
			log = append(log, fmt.Sprintf("fire %s@%v", s.name(), e.Now()))
			s.Fire()
		}
	}
	e.Schedule(1, fire(sigs[1]))
	e.Schedule(2, fire(sigs[2]))
	e.Schedule(3, fire(sigs[0]))
	events := 0
	e.SetPoll(1, func() { events++ })
	e.StartTask(0, "t", -1, func(tk *Task) {
		AwaitAll(tk, sigs, func() {
			log = append(log, fmt.Sprintf("resume@%v", tk.Now()))
			tk.Finish()
		})
		if got := sigs[0].parked(); got != 1 {
			t.Errorf("parked on a %d times, want 1", got)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "fire b@1,fire c@2,fire a@3,resume@3"
	if got := strings.Join(log, ","); got != want {
		t.Errorf("log = %s, want %s", got, want)
	}
	// start, three fires, one wake.
	if events != 5 {
		t.Errorf("fired %d events, want 5", events)
	}
}

// TestResourceMixedFIFO alternates UseTask holders and explicit
// AcquireTask/Release holders through a capacity-1 resource: slots must
// be granted strictly in arrival order, the uncontended first arrival
// taking the synchronous fast path, each release handing the slot to the
// next waiter at the release instant.
func TestResourceMixedFIFO(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("mds", 1)
	var order []string
	done := func(tk *Task) {
		order = append(order, fmt.Sprintf("%s@%v", tk.Name(), tk.Now()))
		tk.Finish()
	}
	for i := 0; i < 4; i++ {
		if i%2 == 0 {
			e.StartTask(float64(i)*0.001, "u", i, func(tk *Task) {
				r.UseTask(tk, 1, func() { done(tk) })
			})
		} else {
			e.StartTask(float64(i)*0.001, "a", i, func(tk *Task) {
				r.AcquireTask(tk, func() {
					tk.Sleep(1, func() {
						r.Release()
						done(tk)
					})
				})
			})
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"u0@1", "a1@2", "u2@3", "a3@4"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order[%d] = %s, want %s", i, order[i], want[i])
		}
	}
	if r.InUse() != 0 || r.QueueLen() != 0 {
		t.Errorf("resource not drained: inUse=%d queue=%d", r.InUse(), r.QueueLen())
	}
}

// TestTaskDeadlockReport: every stuck task appears in the deadlock error
// with what it is blocked on, sorted by name.
func TestTaskDeadlockReport(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("never")
	r := e.NewResource("narrow", 1)
	e.StartTask(0, "a-task", 7, func(tk *Task) {
		s.Await(tk, tk.Finish)
	})
	e.StartTask(0, "b-task", -1, func(tk *Task) {
		r.AcquireTask(tk, func() {
			s.Await(tk, tk.Finish) // holds the slot forever
		})
	})
	e.StartTask(0, "c-task", -1, func(tk *Task) {
		r.AcquireTask(tk, tk.Finish)
	})
	err := e.Run()
	if err == nil {
		t.Fatal("want deadlock error")
	}
	msg := err.Error()
	for _, frag := range []string{
		"3 blocked process(es)",
		`a-task7 (waiting never)`,
		`b-task (waiting never)`,
		`c-task (queued on narrow)`,
		`[a-task7 (waiting never) b-task (waiting never) c-task (queued on narrow)]`,
	} {
		if !strings.Contains(msg, frag) {
			t.Errorf("deadlock report %q missing %q", msg, frag)
		}
	}
}

// TestParkTwiceWakeTwice: a task that parks on a resource and then, before
// either wakes it, on a signal is linked into the blocked list once, as
// waiting on the signal. The signal's fire unlinks it and the resource's
// later grant is a no-op unblock; the final deadlock report lists exactly
// the still-blocked tasks, sorted, in the usual format.
func TestParkTwiceWakeTwice(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("r", 1)
	r2 := e.NewResource("r2", 1)
	s := e.NewSignal("s")
	never := e.NewSignal("never")
	blocked := func() []string {
		var names []string
		for tk := e.blocked; tk != nil; tk = tk.next {
			names = append(names, tk.Name()+" ("+tk.on.String()+")")
		}
		sort.Strings(names)
		return names
	}
	e.StartTask(0, "h", -1, func(tk *Task) {
		r.AcquireTask(tk, func() {
			tk.Sleep(1, func() {
				r.Release()
				tk.Finish()
			})
		})
	})
	e.StartTask(0, "b-holder", -1, func(tk *Task) {
		r2.AcquireTask(tk, func() { never.Await(tk, tk.Finish) })
	})
	e.StartTask(0, "b", 7, func(tk *Task) { r2.AcquireTask(tk, tk.Finish) })
	e.StartTask(0, "z", -1, func(tk *Task) { never.Await(tk, tk.Finish) })
	woken := 0
	e.StartTask(0.1, "a", -1, func(tk *Task) {
		resume := func() {
			if woken++; woken == 2 {
				r.Release()
				tk.Finish()
			}
		}
		r.AcquireTask(tk, resume)
		s.Await(tk, resume)
	})
	var mid, late []string
	e.Schedule(0.25, func() { mid = blocked() })
	e.Schedule(0.5, s.Fire)
	e.Schedule(0.75, func() { late = blocked() })
	err := e.Run()
	if woken != 2 {
		t.Errorf("a resumed %d times, want 2", woken)
	}
	if want := "[a (waiting s) b-holder (waiting never) b7 (queued on r2) z (waiting never)]"; fmt.Sprint(mid) != want {
		t.Errorf("blocked after both parks = %v, want %s", mid, want)
	}
	if want := "[b-holder (waiting never) b7 (queued on r2) z (waiting never)]"; fmt.Sprint(late) != want {
		t.Errorf("blocked after the fire = %v, want %s", late, want)
	}
	if err == nil {
		t.Fatal("want deadlock error")
	}
	want := "sim: deadlock at t=1.000000: 3 blocked process(es): [b-holder (waiting never) b7 (queued on r2) z (waiting never)]"
	if err.Error() != want {
		t.Errorf("deadlock report\n got %s\nwant %s", err, want)
	}
}

// TestSignalRearm: a fired, re-armed signal parks new waiters until its
// next fire, parks its overflow waiters in the list its last fire pooled,
// and is named by its current number in deadlock reports; rearming with
// waiters parked panics.
func TestSignalRearm(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("coll-")
	var log []string
	for i := 0; i < 3; i++ {
		e.StartTask(0, "w", i, func(tk *Task) {
			s.Await(tk, func() {
				log = append(log, fmt.Sprintf("%s@%v", tk.Name(), tk.Now()))
				tk.Finish()
			})
		})
	}
	e.Schedule(1, s.Fire)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.waitLists) != 1 || s.waiters != nil {
		t.Fatalf("fire pooled %d lists (signal keeps %v), want its one overflow list pooled", len(e.waitLists), s.waiters)
	}
	capBefore := cap(e.waitLists[0])
	s.Rearm(4)
	if s.Fired() {
		t.Fatal("re-armed signal reports fired")
	}
	s.OnFired(func() {}) // the inline first waiter, so x overflows
	e.StartTask(0, "x", -1, func(tk *Task) {
		s.Await(tk, tk.Finish)
		if cap(s.waiters) != capBefore {
			t.Errorf("waiter capacity %d after rearm, want %d kept", cap(s.waiters), capBefore)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic rearming a signal with parked waiters")
				}
			}()
			s.Rearm(5)
		}()
	})
	err := e.Run()
	if got, want := strings.Join(log, ","), "w0@1,w1@1,w2@1"; got != want {
		t.Errorf("first round resumed %s, want %s", got, want)
	}
	if err == nil || !strings.Contains(err.Error(), "[x (waiting coll-4)]") {
		t.Errorf("deadlock report %v, want x waiting coll-4", err)
	}
}

// TestTaskFinishTwicePanics: double-retirement is a bug in the workload's
// continuation chain and must fail loudly.
func TestTaskFinishTwicePanics(t *testing.T) {
	e := NewEngine()
	e.StartTask(0, "t", -1, func(tk *Task) {
		tk.Finish()
		defer func() {
			if recover() == nil {
				t.Error("want panic on second Finish")
			}
		}()
		tk.Finish()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSignalAwaitFireAllocs: one task parking on a fresh, unfired signal
// and the Fire that wakes it allocate nothing once the engine's event
// pool is warm — the lone waiter is kept inline, not in a list grown from
// nil. The signals are made up front; each run uses a new one.
func TestSignalAwaitFireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	const runs = 100
	e := NewEngine()
	sigs := make([]*Signal, runs+1) // AllocsPerRun adds a warm-up run
	for i := range sigs {
		sigs[i] = e.NewSignal("s")
	}
	var tk *Task
	e.StartTask(0, "t", -1, func(t *Task) { tk = t })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	woke := 0
	k := func() { woke++ }
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		s := sigs[next]
		next++
		s.Await(tk, k)
		s.Fire()
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Await+Fire allocated %.1f allocs/op, want 0", allocs)
	}
	if woke != runs+1 {
		t.Errorf("task resumed %d times, want %d", woke, runs+1)
	}
}
