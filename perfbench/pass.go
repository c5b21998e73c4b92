package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// passResult is what one pass reports to the orchestrator. Process-wide
// figures (CPU, allocation, peak RSS) are totals since the process
// started, so work moved into package initialisation still counts.
type passResult struct {
	WallS      float64 // t0 to the end of the workload
	SetupS     float64 // t0 to the first simulation call
	CPUS       float64 // user+sys CPU of the whole process
	AllocBytes uint64
	Allocs     uint64
	PeakRSSKB  int64
	GCCycles   uint64
	GCCPUS     float64

	Attempted int
	Failed    int
	Problems  []string `json:",omitempty"`
	Digest    string

	Spans    map[string]float64
	Counters map[string]int64
	// CPUNanos and AllocBytesBy are profile samples per layer bucket
	// (traced passes only).
	CPUNanos     map[string]int64 `json:",omitempty"`
	AllocBytesBy map[string]int64 `json:",omitempty"`
}

// tracedMemProfileRate samples an allocation every 64 KiB in traced
// passes, against the runtime's default 512 KiB, so the smallest layers
// still get samples.
const tracedMemProfileRate = 64 << 10

// runPass runs one workload pass in this process and measures it. t0 is
// the instant the pass was launched, taken by the orchestrator before it
// started this process.
func runPass(cfg passConfig, t0 time.Time) (*passResult, error) {
	run, ok := workloads[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	var cpuProf bytes.Buffer
	if cfg.Traced {
		runtime.MemProfileRate = tracedMemProfileRate
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	rec := newRecorder(t0)
	run(rec, cfg)
	wall := time.Since(t0)
	digest := rec.finishDigest(cfg.Golden)

	res := &passResult{
		WallS:     wall.Seconds(),
		SetupS:    rec.setup.Seconds(),
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Problems:  rec.problems,
		Spans:     rec.spans,
		Counters:  rec.counters,
		Digest:    digest,
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.AllocBytes, res.Allocs = ms.TotalAlloc, ms.Mallocs
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	res.CPUS = tv(ru.Utime) + tv(ru.Stime)
	res.PeakRSSKB = ru.Maxrss
	gc := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	res.GCCycles, res.GCCPUS = gc[0].Value.Uint64(), gc[1].Value.Float64()

	if cfg.Traced {
		pprof.StopCPUProfile()
		var err error
		if res.CPUNanos, err = attribute(cpuProf.Bytes(), "cpu"); err != nil {
			return nil, err
		}
		runtime.GC() // the heap profile reflects the last completed cycle
		var heap bytes.Buffer
		if err := pprof.WriteHeapProfile(&heap); err != nil {
			return nil, fmt.Errorf("heap profile: %w", err)
		}
		if res.AllocBytesBy, err = attribute(heap.Bytes(), "alloc_space"); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
