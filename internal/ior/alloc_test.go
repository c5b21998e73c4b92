package ior

import (
	"testing"

	"pfsim/internal/mpiio"
)

// repAllocsPerRank is the pinned bound on the allocations one more
// repetition of a 64-rank collective job costs, per rank: 3.09 when
// pinned. Each rank pays its mpiio state's two bindings (step and stepF)
// on the repetition's file; the rest is the repetition's shared work
// (file, layout, aggregators, flows), spread over the ranks. A
// continuation allocated per rank and phase would add at least one more
// per rank; before per-rank state, one more repetition cost 20.7.
const repAllocsPerRank = 3.5

// TestRepetitionAllocsPerRank pins the per-rank cost of one more
// repetition: rank progress runs on state bound once per rank (ior) and
// once per rank and file (mpiio), so per-phase closures cannot creep back
// unnoticed.
func TestRepetitionAllocsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	plat := quietCab()
	const tasks = 64
	allocs := func(reps int) float64 {
		cfg := PaperConfig(tasks)
		cfg.SegmentCount = 4
		cfg.Reps = reps
		cfg.API = mpiio.DriverLustre
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(plat, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	perRank := (allocs(3) - allocs(2)) / tasks
	t.Logf("one more repetition: %.2f allocs per rank", perRank)
	if perRank > repAllocsPerRank {
		t.Errorf("one more repetition costs %.2f allocs per rank, want <= %v", perRank, repAllocsPerRank)
	}
}
