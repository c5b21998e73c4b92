// Command perfbench is pfsim's end-to-end benchmark. It runs one named
// workload for a fixed time, checks every output, and prints each metric
// by name with its unit; the last line of standard output is one JSON
// object. See README.md in this directory.
//
//	perfbench --workload paper|corpus|storm --seed N --seconds S --trace 0|1
//
// The benchmark measures the simulator from outside: every pass runs in
// a fresh process (so peak memory and start-up belong to that pass), the
// benchmark times its calls into public functions, reads counters the
// program already returns, and, in the traced run only, groups CPU and
// allocation profile samples by pfsim/internal package.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"time"
)

// golden holds each workload's output digest at seed 0, full size.
var golden = map[string]string{
	"paper":  "28b9da68c1f7fcb8f4c7b8a967a1cf69608e1d0e29843881c1cb4da606a5fe51",
	"corpus": "a47ea5349be82efcba86e564ea58d21e2ad44c7be8da271864e29f05306ca146",
	"storm":  "a173fef46086b35321deb2ce726611f61bf37f7436bdb52d4913ac4fa331f5d0",
}

// The scenario corpus, relative to the repository root.
const (
	corpusDir  = "scenarios"
	corpusGlob = corpusDir + "/*.yaml"
)

// Minimum passes per run, whatever --seconds says: a median needs three
// samples, and the traced run needs a traced and an untraced pass each
// for the overhead ratio.
const (
	minPasses       = 3
	minTracedPasses = 4
)

// passTimeout stops a pass that hangs; the longest pass takes about ten
// seconds, and a run must end within three minutes.
const passTimeout = 120 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "pass" {
		os.Exit(passMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// benchMain is the benchmark command: it parses its flags, runs
// passes until the time is up, and prints the result.
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper, corpus or storm")
	seed := fs.Uint64("seed", 0, "input seed; 0 keeps the program's own seeds and checks the golden digests")
	seconds := fs.Float64("seconds", 10, "how long to keep starting passes")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	tiny := fs.Bool("tiny", false, "smoke-test size (digests are printed, not checked)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --workload paper|corpus|storm and --trace 0|1")
		return 2
	}
	if _, err := os.Stat(corpusDir); err != nil {
		fmt.Fprintln(stderr, "perfbench: run from the repository root:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := bench{
		cfg:     passConfig{Workload: *name, Seed: *seed, Tiny: *tiny, Corpus: corpusGlob},
		seconds: *seconds,
		traced:  *trace == 1,
		launch:  func(cfg passConfig) (*passResult, error) { return spawnPass(exe, cfg) },
	}
	if *seed == 0 && !*tiny {
		b.cfg.Golden = golden[*name]
	}
	out, err := b.run(stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench runs the passes of one benchmark run.
type bench struct {
	cfg     passConfig
	seconds float64
	traced  bool
	launch  func(passConfig) (*passResult, error)
}

// result is the benchmark's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run starts passes until starting another would overrun the time
// (after the minimum count), then aggregates them. A traced run
// alternates untraced and traced passes, so both see the same machine.
func (b *bench) run(log io.Writer) (*result, error) {
	start := time.Now()
	var plain, traced []*passResult
	var last time.Duration
	atLeast := minPasses
	if b.traced {
		atLeast = minTracedPasses
	}
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if i >= atLeast && (elapsed+last).Seconds() > b.seconds {
			break
		}
		cfg := b.cfg
		cfg.Traced = b.traced && i%2 == 1
		passStart := time.Now()
		r, err := b.launch(cfg)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		last = time.Since(passStart)
		if cfg.Traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	return b.aggregate(plain, traced, log), nil
}

// aggregate checks the passes against each other and reduces them to
// the metrics of the run: medians of per-pass figures, summed profile
// samples, and the traced-to-untraced wall-time ratio.
func (b *bench) aggregate(plain, traced []*passResult, log io.Writer) *result {
	all := append(append([]*passResult{}, plain...), traced...)
	out := &result{Metrics: map[string]metric{}}
	for _, p := range all {
		out.Attempted += p.Attempted
		out.Failed += p.Failed
		for _, msg := range p.Problems {
			fmt.Fprintf(log, "FAIL %s\n", msg)
		}
		if p.Digest != all[0].Digest {
			// A pass disagreeing with the first is a failed digest
			// operation: every pass of a run has the same inputs.
			out.Failed++
			fmt.Fprintf(log, "FAIL digest %s differs from the run's first pass %s\n", p.Digest, all[0].Digest)
		}
	}
	out.Correct = out.Failed == 0
	if b.cfg.Golden == "" {
		fmt.Fprintf(log, "digest %s seed=%d %s\n", b.cfg.Workload, b.cfg.Seed, all[0].Digest)
	}
	set := func(name string, v float64) {
		out.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
	}
	med := func(ps []*passResult, f func(*passResult) float64) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(p)
		}
		return median(xs)
	}
	wallU := med(plain, func(p *passResult) float64 { return p.WallS })
	if !b.traced {
		// wall_s is printed, not gated: see "Bounds and run-to-run
		// spread" in README.md.
		fmt.Fprintf(log, "wall_s %.6g s: median of %d passes\n", wallU, len(plain))
		set("cpu_s", med(plain, func(p *passResult) float64 { return p.CPUS }))
		set("setup_s", med(plain, func(p *passResult) float64 { return p.SetupS }))
		set("alloc_mb", med(plain, func(p *passResult) float64 { return float64(p.AllocBytes) / 1e6 }))
		set("allocs_k", med(plain, func(p *passResult) float64 { return float64(p.Allocs) / 1e3 }))
		set("peak_rss_mb", med(plain, func(p *passResult) float64 { return float64(p.PeakRSSKB) / 1024 }))
	} else {
		cpu, alloc := map[string]int64{}, map[string]int64{}
		for _, p := range traced {
			addBuckets(cpu, p.CPUNanos, cpuBuckets())
			addBuckets(alloc, p.AllocBytesBy, allocBuckets())
		}
		for _, l := range cpuBuckets() {
			set(l+".cpu_share", share(cpu, l))
		}
		for _, l := range allocBuckets() {
			set(l+".alloc_share", share(alloc, l))
		}
		for _, name := range spanNames() {
			set(name, med(traced, func(p *passResult) float64 { return p.Spans[name] }))
		}
		for _, name := range counterNames {
			set(name, float64(traced[0].Counters[name]))
		}
		set("runtime.gc_cycles", med(plain, func(p *passResult) float64 { return float64(p.GCCycles) }))
		set("runtime.gc_cpu_s", med(plain, func(p *passResult) float64 { return p.GCCPUS }))
		wallT := med(traced, func(p *passResult) float64 { return p.WallS })
		set("trace.untraced_wall_s", wallU)
		set("trace.traced_wall_s", wallT)
		set("trace.overhead_frac", wallT/wallU-1)
		set("failed_ops_frac", float64(out.Failed)/float64(max(out.Attempted, 1)))
	}
	names := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(log, "%s seed=%d: %d untraced + %d traced passes, %d/%d operations failed\n",
		b.cfg.Workload, b.cfg.Seed, len(plain), len(traced), out.Failed, out.Attempted)
	for _, p := range all {
		fmt.Fprintf(log, "  pass traced=%-5v wall %.4f s  setup %.6f s  cpu %.4f s\n", p.CPUNanos != nil, p.WallS, p.SetupS, p.CPUS)
	}
	for _, k := range names {
		m := out.Metrics[k]
		fmt.Fprintf(log, "  %-40s %14.6g %s\n", k, m.Value, m.Unit)
	}
	return out
}

// addBuckets sums samples into dst, folding any bucket outside names
// (an allocation made by the collector itself, or a package the
// workloads did not reach when the list was written) into runtime.other,
// so the shares of the listed buckets always sum to one.
func addBuckets(dst, src map[string]int64, names []string) {
	for k, v := range src {
		if !slices.Contains(names, k) {
			k = "runtime.other"
		}
		dst[k] += v
	}
}

func share(m map[string]int64, key string) float64 {
	var total int64
	for _, v := range m {
		total += v
	}
	if total == 0 {
		return 0
	}
	return float64(m[key]) / float64(total)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spawnPass runs one pass in a fresh process of this executable.
func spawnPass(exe string, cfg passConfig) (*passResult, error) {
	args := []string{"pass",
		"-workload", cfg.Workload,
		"-seed", strconv.FormatUint(cfg.Seed, 10),
		"-corpus", cfg.Corpus,
		"-golden", cfg.Golden,
		"-t0", strconv.FormatInt(time.Now().UnixNano(), 10),
	}
	if cfg.Tiny {
		args = append(args, "-tiny")
	}
	if cfg.Traced {
		args = append(args, "-traced")
	}
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var r passResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("pass output: %w", err)
	}
	return &r, nil
}

// passMain is the child side of spawnPass.
func passMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench pass", flag.ContinueOnError)
	var cfg passConfig
	fs.StringVar(&cfg.Workload, "workload", "", "")
	fs.Uint64Var(&cfg.Seed, "seed", 0, "")
	fs.StringVar(&cfg.Corpus, "corpus", corpusGlob, "")
	fs.StringVar(&cfg.Golden, "golden", "", "")
	fs.BoolVar(&cfg.Tiny, "tiny", false, "")
	fs.BoolVar(&cfg.Traced, "traced", false, "")
	t0 := fs.Int64("t0", 0, "launch instant, Unix nanoseconds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *t0 == 0 {
		fmt.Fprintln(os.Stderr, "perfbench pass: -t0 is required")
		return 2
	}
	r, err := runPass(cfg, time.Unix(0, *t0))
	if err == nil {
		err = json.NewEncoder(stdout).Encode(r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench pass:", err)
		return 1
	}
	return 0
}
