package mpi

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"pfsim/internal/sim"
)

func TestWorldGeometry(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWorld(eng, 64, 16, 10)
	if w.Size() != 64 {
		t.Errorf("size = %d", w.Size())
	}
	if w.NodeOf(0) != 10 || w.NodeOf(15) != 10 || w.NodeOf(16) != 11 || w.NodeOf(63) != 13 {
		t.Errorf("node mapping wrong: %d %d %d %d",
			w.NodeOf(0), w.NodeOf(15), w.NodeOf(16), w.NodeOf(63))
	}
	if w.Nodes() != 4 {
		t.Errorf("nodes = %d, want 4", w.Nodes())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewWorld(sim.NewEngine(), 0, 16, 0)
}

func TestLaunchAndDone(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWorld(eng, 8, 4, 0)
	var ran int32
	w.LaunchTasks(func(r *Rank, done func()) {
		r.Task().Sleep(float64(r.ID()), func() {
			atomic.AddInt32(&ran, 1)
			done()
		})
	})
	finished := false
	eng.StartTask(0, "watcher", -1, func(tk *sim.Task) {
		w.Done().Await(tk, func() {
			finished = true
			if tk.Now() != 7 {
				t.Errorf("done at %v, want 7 (slowest rank)", tk.Now())
			}
			tk.Finish()
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 8 || !finished {
		t.Errorf("ran=%d finished=%v", ran, finished)
	}
	if eng.LiveTasks() != 0 {
		t.Errorf("%d rank tasks still live", eng.LiveTasks())
	}
}

func TestBarrierSynchronises(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWorld(eng, 16, 16, 0)
	var after []float64
	w.LaunchTasks(func(r *Rank, done func()) {
		r.Task().Sleep(float64(r.ID())*0.1, func() { // staggered arrivals
			w.Comm().BarrierK(r, func() {
				after = append(after, r.Task().Now())
				done()
			})
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(after) != 16 {
		t.Fatalf("%d of 16 ranks released", len(after))
	}
	want := 1.5 + w.CollectiveLatency*4 // slowest arrival + log2(16) stages
	for _, tm := range after {
		if math.Abs(tm-want) > 1e-9 {
			t.Errorf("rank released at %v, want %v", tm, want)
		}
	}
}

func TestAllreduce(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWorld(eng, 10, 16, 0)
	w.LaunchTasks(func(r *Rank, done func()) {
		v := float64(r.ID())
		w.Comm().AllreduceMinK(r, v, func(got float64) {
			if got != 0 {
				t.Errorf("min = %v", got)
			}
			w.Comm().AllreduceMaxK(r, v, func(got float64) {
				if got != 9 {
					t.Errorf("max = %v", got)
				}
				w.Comm().AllreduceSumK(r, v, func(got float64) {
					if got != 45 {
						t.Errorf("sum = %v", got)
					}
					done()
				})
			})
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.LiveTasks() != 0 {
		t.Errorf("%d rank tasks still live", eng.LiveTasks())
	}
}

func TestAllGatherOrder(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWorld(eng, 5, 16, 0)
	w.LaunchTasks(func(r *Rank, done func()) {
		w.Comm().AllGatherK(r, float64(r.ID()*r.ID()), func(got []float64) {
			for i, v := range got {
				if v != float64(i*i) {
					t.Errorf("gather[%d] = %v", i, v)
				}
			}
			done()
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitByColor(t *testing.T) {
	// The Figure 2 benchmark splits a world into per-file communicators.
	eng := sim.NewEngine()
	w := NewWorld(eng, 12, 16, 0)
	w.LaunchTasks(func(r *Rank, done func()) {
		color := r.ID() % 3
		w.Comm().SplitK(r, color, r.ID(), func(sub *Comm) {
			if sub.Size() != 4 {
				t.Errorf("subcomm size = %d, want 4", sub.Size())
			}
			if sub.RankOf(r) != r.ID()/3 {
				t.Errorf("world %d: sub rank = %d, want %d", r.ID(), sub.RankOf(r), r.ID()/3)
			}
			// Members share a color.
			for _, wr := range sub.WorldRanks() {
				if wr%3 != color {
					t.Errorf("world %d in wrong color group", wr)
				}
			}
			// Collectives work within the split comm.
			sub.AllreduceSumK(r, 1, func(got float64) {
				if got != 4 {
					t.Errorf("sub sum = %v", got)
				}
				done()
			})
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSplitKeyOrdering: keys that reverse world order reverse the comm
// ranks, and AllreduceSumK on the split comm still adds in world-rank
// order, bit for bit — 0.1..0.4 sums to 1.0 in world order but to
// 0.9999999999999999 in comm order.
func TestSplitKeyOrdering(t *testing.T) {
	vals := []float64{0.1, 0.2, 0.3, 0.4}
	want := ((vals[0] + vals[1]) + vals[2]) + vals[3]
	if commOrder := ((vals[3] + vals[2]) + vals[1]) + vals[0]; commOrder == want {
		t.Fatalf("values do not tell the summation orders apart: both give %v", want)
	}
	eng := sim.NewEngine()
	w := NewWorld(eng, 4, 16, 0)
	w.LaunchTasks(func(r *Rank, done func()) {
		// Reverse ordering by key: highest world rank becomes sub rank 0.
		w.Comm().SplitK(r, 0, -r.ID(), func(sub *Comm) {
			if got, want := sub.RankOf(r), 3-r.ID(); got != want {
				t.Errorf("world %d: sub rank = %d, want %d", r.ID(), got, want)
			}
			sub.AllreduceSumK(r, vals[r.ID()], func(got float64) {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("world %d: sum = %v, want %v (world-rank order)", r.ID(), got, want)
				}
				done()
			})
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !w.Done().Fired() {
		t.Error("ranks never finished")
	}
}

// TestAllreduceSignedZero: -0 and +0 compare equal, so which one a
// min/max reduction returns depends on scan order; it is pinned to comm
// order, the lowest comm rank's zero winning.
func TestAllreduceSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name string
		vals []float64
		neg  bool // sign of the expected min and max
	}{
		{"plus-first", []float64{0, negZero, 0, negZero}, false},
		{"minus-first", []float64{negZero, 0, negZero, 0}, true},
	} {
		eng := sim.NewEngine()
		w := NewWorld(eng, len(tc.vals), 16, 0)
		w.LaunchTasks(func(r *Rank, done func()) {
			v := tc.vals[r.ID()]
			w.Comm().AllreduceMinK(r, v, func(min float64) {
				w.Comm().AllreduceMaxK(r, v, func(max float64) {
					if min != 0 || math.Signbit(min) != tc.neg || max != 0 || math.Signbit(max) != tc.neg {
						t.Errorf("%s: min %v max %v, want zeros with signbit %v", tc.name, min, max, tc.neg)
					}
					done()
				})
			})
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSingleRankCollectives(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWorld(eng, 1, 16, 0)
	w.LaunchTasks(func(r *Rank, done func()) {
		w.Comm().BarrierK(r, func() {
			w.Comm().AllreduceMaxK(r, 7, func(got float64) {
				if got != 7 {
					t.Errorf("solo max = %v", got)
				}
				w.Comm().SplitK(r, 5, 0, func(sub *Comm) {
					if sub.Size() != 1 {
						t.Errorf("solo split size = %d", sub.Size())
					}
					done()
				})
			})
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !w.Done().Fired() {
		t.Error("solo rank never finished")
	}
	if eng.Now() != 0 {
		t.Errorf("single-rank collectives should be free, t=%v", eng.Now())
	}
}

// TestForeignRankPanics: membership is by world rank id, so a rank whose
// id the communicator does not hold panics on arrival, before it can park.
func TestForeignRankPanics(t *testing.T) {
	eng := sim.NewEngine()
	w1 := NewWorld(eng, 3, 16, 0)
	w2 := NewWorld(eng, 2, 16, 10)
	panicked := false
	w1.LaunchTasks(func(r *Rank, done func()) {
		defer done()
		if r.ID() == 2 {
			defer func() { panicked = recover() != nil }()
			w2.Comm().BarrierK(r, func() {}) // wrong comm
		}
	})
	w2.LaunchTasks(func(r *Rank, done func()) { done() })
	if err := eng.Run(); err != nil { // the panic is recovered inside the rank body
		t.Fatal(err)
	}
	if !panicked {
		t.Error("want panic for foreign-comm collective")
	}
}

// TestRepeatedCollectivesMatchInOrder runs back-to-back reductions,
// cycling min, max and sum, with every rank contributing a different
// value each round. Even rounds stagger the arrivals so the last arriver
// changes by round; odd rounds do not, so at zero latency the previous
// round's last arriver continues inline into the next collective while
// the others are still only scheduled to resume — the case that reuses
// a rendezvous slot soonest. Each rank must receive its own round's
// result.
func TestRepeatedCollectivesMatchInOrder(t *testing.T) {
	const n, rounds = 6, 20
	for _, lat := range []float64{0, DefaultCollectiveLatency} {
		eng := sim.NewEngine()
		w := NewWorld(eng, n, 16, 0)
		w.CollectiveLatency = lat
		w.LaunchTasks(func(r *Rank, done func()) {
			var step func(i int)
			step = func(i int) {
				if i == rounds {
					done()
					return
				}
				contrib := func(id int) float64 { return float64((id+1)*(i+1) + (i%n*id)%3) }
				reduce, want := w.Comm().AllreduceSumK, 0.0
				switch i % 3 {
				case 0:
					reduce, want = w.Comm().AllreduceMinK, math.Inf(1)
				case 1:
					reduce, want = w.Comm().AllreduceMaxK, math.Inf(-1)
				}
				for id := 0; id < n; id++ {
					switch x := contrib(id); i % 3 {
					case 0:
						want = math.Min(want, x)
					case 1:
						want = math.Max(want, x)
					default:
						want += x
					}
				}
				arrive := func() {
					reduce(r, contrib(r.ID()), func(got float64) {
						if got != want {
							t.Errorf("latency %v round %d rank %d: got %v, want %v", lat, i, r.ID(), got, want)
						}
						step(i + 1)
					})
				}
				if i%2 == 1 {
					arrive()
					return
				}
				r.Task().Sleep(float64((r.ID()*7+i*5)%n)*1e-3, arrive)
			}
			step(0)
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if !w.Done().Fired() {
			t.Errorf("latency %v: ranks never finished", lat)
		}
	}
}

var barrierRounds int

// TestBarrierSteadyStateAllocs: once a communicator's rendezvous ring is
// filled, a barrier round allocates nothing for the waiting ranks: they
// park their own continuation on a re-armed signal whose waiter list
// kept its capacity. The last arriver allocates only its release
// closure, and only when there is latency to pay.
func TestBarrierSteadyStateAllocs(t *testing.T) {
	const n, perRun = 8, 10
	for _, tc := range []struct {
		lat      float64
		maxPerRd float64
	}{{0, 0}, {DefaultCollectiveLatency, 1}} {
		eng := sim.NewEngine()
		w := NewWorld(eng, n, 16, 0)
		w.CollectiveLatency = tc.lat
		ranks := make([]*Rank, n)
		loops := make([]func(), n)
		limit := 0
		w.LaunchTasks(func(r *Rank, done func()) {
			id, c := r.ID(), w.Comm()
			ranks[id] = r
			left := 0
			loops[id] = func() {
				if id == 0 {
					barrierRounds++
				}
				if left++; left < limit {
					c.BarrierK(r, loops[id])
				}
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		round := func() {
			limit += perRun
			for id, r := range ranks {
				w.Comm().BarrierK(r, loops[id])
			}
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		}
		round() // fill the ring and grow the waiter lists and event pool
		before := barrierRounds
		allocs := testing.AllocsPerRun(20, round)
		if got := barrierRounds - before; got != 21*perRun {
			t.Fatalf("latency %v: ran %d barrier rounds, want %d", tc.lat, got, 21*perRun)
		}
		if perRd := allocs / perRun; perRd > tc.maxPerRd {
			t.Errorf("latency %v: %.2f allocations per barrier round, want <= %v", tc.lat, perRd, tc.maxPerRd)
		}
	}
}

func TestRankAccessors(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWorld(eng, 2, 1, 5)
	w.LaunchTasks(func(r *Rank, done func()) {
		if r.World() != w {
			t.Error("World() mismatch")
		}
		if r.Node() != 5+r.ID() {
			t.Errorf("rank %d on node %d", r.ID(), r.Node())
		}
		if r.Task() == nil || r.Task().Name() != fmt.Sprintf("rank%d", r.ID()) {
			t.Errorf("rank %d: task %v", r.ID(), r.Task())
		}
		done()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := w.Comm().Label(); got != "world" {
		t.Errorf("label = %q", got)
	}
}

func TestSplitPartitionProperty(t *testing.T) {
	// Property: for arbitrary color assignments, the split communicators
	// partition the world — every rank lands in exactly one subcomm, all
	// members share its color, and comm ranks are ordered by key.
	for seed := 0; seed < 8; seed++ {
		size := 5 + seed*3
		colors := make([]int, size)
		keys := make([]int, size)
		for i := range colors {
			colors[i] = (i*7 + seed) % 3
			keys[i] = (size - i) * ((seed % 2) + 1)
		}
		eng := sim.NewEngine()
		w := NewWorld(eng, size, 16, 0)
		membership := make([]*Comm, size)
		w.LaunchTasks(func(r *Rank, done func()) {
			w.Comm().SplitK(r, colors[r.ID()], keys[r.ID()], func(sub *Comm) {
				membership[r.ID()] = sub
				// Members agree on color.
				for _, wr := range sub.WorldRanks() {
					if colors[wr] != colors[r.ID()] {
						t.Errorf("seed %d: world %d grouped with wrong color", seed, wr)
					}
				}
				// Comm order sorted by (key, world rank).
				ranks := sub.WorldRanks()
				for i := 1; i < len(ranks); i++ {
					a, b := ranks[i-1], ranks[i]
					if keys[a] > keys[b] || (keys[a] == keys[b] && a > b) {
						t.Errorf("seed %d: comm order violates keys: %d before %d", seed, a, b)
					}
				}
				done()
			})
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		// Partition: total membership equals world size exactly once.
		total := 0
		seen := map[*Comm]bool{}
		for _, c := range membership {
			if c == nil {
				t.Fatalf("seed %d: rank missing subcomm", seed)
			}
			if !seen[c] {
				seen[c] = true
				total += c.Size()
			}
		}
		if total != size {
			t.Errorf("seed %d: subcomms cover %d of %d ranks", seed, total, size)
		}
	}
}
