package flow

import (
	"testing"

	"pfsim/internal/sim"
)

// allocNet builds a warmed net: nLinks disjoint single-link components,
// one long-running flow each (sizes far beyond the test horizon, so the
// steady state is pure re-solve/commit/reschedule with no completions),
// plus enough model toggles to grow every scratch slice and the event
// pool to their steady capacity.
func allocNet(nLinks int) (*sim.Engine, *Net, []*Link) {
	eng := sim.NewEngine()
	n := NewNet(eng)
	links := make([]*Link, nLinks)
	for i := range links {
		links[i] = n.NewLink("l"+string(rune('a'+i)), Const(100))
	}
	for i, l := range links {
		n.Start("f"+string(rune('a'+i)), 1e12, 80, l)
	}
	fast, slow := CapacityModel(Const(100)), CapacityModel(Const(60))
	for i := 0; i < 16; i++ {
		m := fast
		if i%2 == 0 {
			m = slow
		}
		for _, l := range links {
			l.SetModel(m)
		}
		if err := eng.RunUntil(eng.Now()); err != nil {
			panic(err)
		}
	}
	return eng, n, links
}

// TestSolverSteadyStateAllocs pins the hot-path discipline end to end:
// after warm-up, a model-shift -> flush -> re-solve -> commit ->
// reschedule cycle must not touch the heap allocator at all. This is
// the runtime counterpart of the hotalloc lint and the pfsim-escape
// compiler cross-check.
func TestSolverSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	eng, _, links := allocNet(4)
	fast, slow := CapacityModel(Const(100)), CapacityModel(Const(60))
	cur := fast
	allocs := testing.AllocsPerRun(200, func() {
		if cur == fast {
			cur = slow
		} else {
			cur = fast
		}
		for _, l := range links {
			l.SetModel(cur)
		}
		if err := eng.RunUntil(eng.Now()); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state solve allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestSolverRetireAdmitAllocs pins the in-place rebuild: a cycle that
// retires one flow of a connected multi-flow component and admits a
// replacement allocates only the replacement's own records (its Flow and
// Done signal, measured by admitting alone). The retirement's rebuild
// leaves one class, which keeps its component record and lists, so the
// completion, rebuild, re-solve and commit add nothing.
func TestSolverRetireAdmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	// k flows capped at 10 MB/s share a backbone, each also crossing one
	// of k+1 private links in rotation. A replacement of 10k MB drains k
	// seconds after admission, so with one cycle per second exactly one
	// flow retires per cycle and the population stays k.
	const k = 8
	eng := sim.NewEngine()
	n := NewNet(eng)
	bb := n.NewLink("bb", Const(1000))
	paths := make([][]*Link, k+1)
	for i := range paths {
		paths[i] = []*Link{bb, n.NewLink("own"+string(rune('a'+i)), Const(100))}
	}
	next := 0
	admit := func(sizeMB float64) {
		n.StartFunc("", sizeMB, 10, nil, paths[next%len(paths)]...)
		next++
	}
	for i := 1; i <= k; i++ {
		admit(float64(10 * i))
	}
	cycle := func() {
		if err := eng.RunUntil(eng.Now() + 1); err != nil {
			panic(err)
		}
		if n.ActiveFlows() != k-1 || n.Components() != 1 {
			panic("cycle did not retire exactly one flow of the component")
		}
		admit(10 * k)
	}
	for i := 0; i < 2*k; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(200, cycle)

	eng2 := sim.NewEngine()
	n2 := NewNet(eng2)
	path2 := []*Link{n2.NewLink("bb", Const(1000))}
	alone := testing.AllocsPerRun(200, func() { n2.StartFunc("", 1e9, 10, nil, path2...) })
	t.Logf("cycle %.1f allocs/op, admission alone %.1f", allocs, alone)
	if allocs != alone {
		t.Errorf("retire+admit cycle allocated %.1f allocs/op, want %.1f (the admission alone)", allocs, alone)
	}
}
