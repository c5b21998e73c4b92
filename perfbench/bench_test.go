package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain runs the tests from the repository root, where the benchmark
// runs, and serves the child side of spawned passes: benchMain launches
// passes through os.Executable, which under test is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "pass" {
		os.Exit(passMain(os.Args[2:], os.Stdout))
	}
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestTinyRunsEmitEveryMetric runs each workload at smoke-test size,
// untraced and traced, through the full command, and checks that the
// last line carries exactly the metrics BENCHMARK.json names, with their
// units.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"paper", "corpus", "storm"} {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w, "--seed", "0", "--seconds", "0", "--trace", string(rune('0' + trace)), "--tiny"}
			if code := benchMain(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %d: exit %d: %s", w, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var got result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s trace %d: last line: %v", w, trace, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v failed=%d attempted=%d\n%s", w, trace, got.Correct, got.Failed, got.Attempted, stdout.String())
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json names %d", w, trace, len(got.Metrics), len(want))
			}
			for _, m := range want {
				g, ok := got.Metrics[m.Name]
				if !ok || g.Unit != m.Unit || math.IsNaN(g.Value) {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", w, trace, m.Name, g, m.Unit)
				}
			}
			if trace == 1 {
				checkSharesSumToOne(t, w, got.Metrics)
			}
		}
	}
}

func checkSharesSumToOne(t *testing.T, w string, ms map[string]metric) {
	t.Helper()
	for _, kind := range []string{".cpu_share", ".alloc_share"} {
		sum := 0.0
		for name, m := range ms {
			if strings.HasSuffix(name, kind) {
				sum += m.Value
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: %s shares sum to %v", w, kind, sum)
		}
	}
}

// inProcess runs a traced benchmark run with passes in this process, so
// a test can hand it a configuration the command line cannot express.
func inProcess(t *testing.T, cfg passConfig) *result {
	t.Helper()
	b := bench{cfg: cfg, traced: true, launch: func(c passConfig) (*passResult, error) { return runPass(c, time.Now()) }}
	out, err := b.run(&bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWrongDigestFails: a digest mismatch is a failed operation, so the
// golden check is not vacuous.
func TestWrongDigestFails(t *testing.T) {
	out := inProcess(t, passConfig{Workload: "storm", Tiny: true, Corpus: corpusGlob, Golden: "not-the-digest"})
	if out.Correct || out.Failed != minTracedPasses || out.Metrics["failed_ops_frac"].Value <= 0 {
		t.Fatalf("correct=%v failed=%d failed_ops_frac=%v", out.Correct, out.Failed, out.Metrics["failed_ops_frac"].Value)
	}
}

// TestFailingAssertionFails: a corpus file whose assertion does not hold
// fails exactly that operation.
func TestFailingAssertionFails(t *testing.T) {
	out := inProcess(t, passConfig{Workload: "corpus", Corpus: "perfbench/testdata/unreachable-bandwidth.yaml"})
	// Per pass: the file, its two assertions and the digest; one fails.
	if out.Correct || out.Attempted != 4*minTracedPasses || out.Failed != minTracedPasses || out.Metrics["failed_ops_frac"].Value != 0.25 {
		t.Fatalf("correct=%v attempted=%d failed=%d failed_ops_frac=%v", out.Correct, out.Attempted, out.Failed, out.Metrics["failed_ops_frac"].Value)
	}
}

// TestDisagreeingPassesFail: a pass whose digest differs from the run's
// first counts as a failed operation, which is the only check a
// non-default seed has on determinism.
func TestDisagreeingPassesFail(t *testing.T) {
	b := bench{cfg: passConfig{Workload: "storm"}}
	ps := []*passResult{{Attempted: 2, Digest: "a"}, {Attempted: 2, Digest: "a"}, {Attempted: 2, Digest: "b"}}
	out := b.aggregate(ps, nil, &bytes.Buffer{})
	if out.Correct || out.Failed != 1 || out.Attempted != 6 {
		t.Fatalf("correct=%v failed=%d attempted=%d", out.Correct, out.Failed, out.Attempted)
	}
}

// TestGoldenDigests runs every workload once at full size and seed 0
// against its golden digest, with every operation passing.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size passes")
	}
	for _, w := range []string{"paper", "corpus", "storm"} {
		r, err := runPass(passConfig{Workload: w, Corpus: corpusGlob, Golden: golden[w]}, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w, r.Failed, r.Attempted, r.Problems)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "pfsim/internal/sim.(*Engine).Schedule"}, "runtime.gc"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgcSmallNoscan", "runtime.mallocgc", "runtime.newobject", "pfsim/internal/mpi.(*Comm).arrive"}, "runtime.malloc"},
		{[]string{"runtime.memmove", "runtime.growslice", "pfsim/internal/flow.(*Net).solveComponent.func1", "pfsim/internal/sim.(*Engine).RunUntil"}, "flow"},
		{[]string{"sort.Sort", "pfsim/internal/analysis/framework.Load"}, "analysis"},
		{[]string{"runtime.futex", "runtime.schedule", "runtime.mstart"}, "runtime.other"},
		{[]string{"pfsim.SolverShardedScenario", "main.runStorm"}, "runtime.other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
