package workload

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pfsim/internal/cluster"
	"pfsim/internal/ior"
	"pfsim/internal/lustre"
)

// dispatchScenario mixes every converted execution path in one scenario:
// a collective write+read job (ad_lustre aggregators, ReadAll), a
// file-per-process job (per-rank communicator splits and private files),
// an independent writer (WriteIndependent), and a PLFS logger (container
// create, per-rank logs, index compaction). Staggered starts keep the
// jobs genuinely contending rather than phase-locked.
func dispatchScenario() Scenario {
	coll := ior.PaperConfig(8)
	coll.Label = "collective"
	coll.SegmentCount = 2
	coll.Reps = 2
	coll.ReadFile = true

	fpp := ior.PaperConfig(8)
	fpp.Label = "fpp"
	fpp.FilePerProc = true
	fpp.SegmentCount = 2
	fpp.Reps = 1

	indep := ior.PaperConfig(8)
	indep.Label = "independent"
	indep.Collective = false
	indep.SegmentCount = 2
	indep.Reps = 1

	return NewScenario("dispatch",
		Job{Workload: IORJob{Cfg: coll}},
		Job{Workload: IORJob{Cfg: fpp}, StartAt: 0.5},
		Job{Workload: IORJob{Cfg: indep}, StartAt: 1},
		Job{Workload: PLFSLogger{Ranks: 8, MBPerRank: 64, TransferMB: 8}, StartAt: 0.25},
	)
}

// TestDispatchSolverModesBitIdentical runs the mixed dispatch scenario
// under both solver modes: the reference run must reproduce the
// incremental run byte for byte — every job's trajectory, every
// bandwidth sample, every OST layout — and a repeated incremental run
// must reproduce all of that and its deterministic work counters.
func TestDispatchSolverModesBitIdentical(t *testing.T) {
	plat := cluster.Cab()
	sc := dispatchScenario()
	run := func(reference bool) *Result {
		res, err := RunScenario(plat, sc, 0,
			func(sys *lustre.System) { sys.Net().UseReferenceSolver(reference) })
		if err != nil {
			t.Fatalf("reference=%v: %v", reference, err)
		}
		return res
	}
	base := run(false)
	for _, reference := range []bool{false, true} {
		got := run(reference)
		if math.Float64bits(got.Makespan) != math.Float64bits(base.Makespan) {
			t.Errorf("reference=%v: makespan %v, want %v", reference, got.Makespan, base.Makespan)
		}
		for j := range base.Jobs {
			a, b := &got.Jobs[j], &base.Jobs[j]
			if math.Float64bits(a.FinishedAt) != math.Float64bits(b.FinishedAt) {
				t.Errorf("reference=%v job %q: finish %v, want %v",
					reference, a.Label, a.FinishedAt, b.FinishedAt)
			}
			if math.Float64bits(a.WriteMBs()) != math.Float64bits(b.WriteMBs()) {
				t.Errorf("reference=%v job %q: write %v, want %v",
					reference, a.Label, a.WriteMBs(), b.WriteMBs())
			}
			if math.Float64bits(a.IOR.Read.Mean()) != math.Float64bits(b.IOR.Read.Mean()) {
				t.Errorf("reference=%v job %q: read %v, want %v",
					reference, a.Label, a.IOR.Read.Mean(), b.IOR.Read.Mean())
			}
			if !reflect.DeepEqual(a.IOR.LayoutOSTs, b.IOR.LayoutOSTs) {
				t.Errorf("reference=%v job %q: OST layouts diverged", reference, a.Label)
			}
		}
		// The full flow.Stats struct: a single diverging solve, link
		// visit, or heap operation anywhere in the run fails this. The
		// two solver modes do different work, so only the incremental
		// rerun is held to the base counters.
		if !reference && got.Solver != base.Solver {
			t.Errorf("solver counters not deterministic:\ngot  %+v\nwant %+v", got.Solver, base.Solver)
		}
	}
}

// TestDispatchCancelDrainsTasks: a run cancelled mid-flight must surface
// ctx.Err() and leave nothing behind — the abandoned tasks own no
// goroutine, so the goroutine count returns to its baseline.
func TestDispatchCancelDrainsTasks(t *testing.T) {
	plat := cluster.Cab()
	sc := dispatchScenario()
	full, err := RunScenario(plat, sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Makespan <= 2 {
		t.Fatalf("scenario too short (%v s) to cancel mid-run", full.Makespan)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	goroutines := runtime.NumGoroutine()
	var stoppedAt float64
	res, err := RunScenarioWith(plat, sc, RunOptions{Ctx: ctx},
		func(sys *lustre.System) {
			sys.Engine().Schedule(1, func() {
				cancel()
				stoppedAt = sys.Engine().Now()
			})
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled run returned a partial result")
	}
	if stoppedAt == 0 {
		t.Error("cancel event never fired: engine did not reach t=1")
	}
	// Tasks park no goroutines, but the solver pool and runtime still
	// reap asynchronously — poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled run leaked goroutines: %d before, %d after",
				goroutines, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}
