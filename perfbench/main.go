// Command perfbench is the repository's wall-clock benchmark. It times the
// real file → .csrg load → partition → engine → partitiond path of this Go
// code on the machine it runs on, one named workload per run, and checks
// every output against a reference computed a second way.
//
//	bash perfbench/run.sh --workload pipeline-road --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the same workload again with a span around every call into a layer and
// prints the per-layer metrics instead. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. README.md
// beside this file records why each workload exists and which end-to-end
// metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Each workload builds its inputs several times and reports the median as
// setup_s, so one slow repetition does not move it. The pipelines' inputs
// take a fraction of a second to build, so they repeat more often.
const (
	setupReps      = 3
	cheapSetupReps = 7
)

// sizes are the generated input sizes. fullSize is the benchmark; the
// short test runs every workload at tinySize.
type sizes struct {
	plVertices int // gen.PrefAttach vertices, 10 edges each (pipeline-powerlaw, service-mix)
	roadSide   int // gen.RoadNet width and height (pipeline-road, service-mix)
	webPages   int // gen.WebGraph pages in all (stream-ingest)
	webChunk   int // pages generated at a time (stream-ingest)
	// churnBatchAdds is the additions per churn POST (service-mix); each
	// POST also deletes a quarter as many.
	churnBatchAdds int
}

var (
	fullSize = sizes{plVertices: 200_000, roadSide: 600, webPages: 1_050_000, webChunk: 50_000, churnBatchAdds: 48}
	tinySize = sizes{plVertices: 2_000, roadSide: 40, webPages: 20_000, webChunk: 5_000, churnBatchAdds: 16}
)

// config is one benchmark invocation.
type config struct {
	workload   string
	seed       uint64
	seconds    time.Duration
	trace      bool
	workDir    string
	traceOut   string
	cpuProfile string
	memProfile string
	size       sizes
	// wrongRef corrupts every reference before outputs are compared with
	// it, so each checked operation must count as failed. The short test
	// sets it.
	wrongRef bool
}

// workloads maps each name to its runner, in the order BENCHMARK.json
// lists them.
var workloads = []struct {
	name string
	run  func(*bench) error
}{
	{"pipeline-powerlaw", runPipelinePowerLaw},
	{"pipeline-road", runPipelineRoad},
	{"stream-ingest", runStreamIngest},
	{"service-mix", runServiceMix},
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics the untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"work_per_s", "1/s"},
	{"held_mem_mb", "MB"},
}

// perLayer are the metrics the traced run prints, on every workload. A
// layer the workload does not call reports 0.
var perLayer = []metricDef{
	{"graph.load_s", "s"},
	{"graph.load_edges_per_s", "edges/s"},
	{"graph.load_allocs", "count"},
	{"graph.csr_s", "s"},
	{"graph.stream_read_s", "s"},
	{"partition.ingress_s", "s"},
	{"partition.ingress_allocs", "count"},
	{"partition.ingress_alloc_mb", "MB"},
	{"partition.stream_feed_wait_s", "s"},
	{"partition.stream_finish_s", "s"},
	{"partition.stream_allocs", "count"},
	{"partition.state_apply_us_per_edge", "us"},
	{"engine.run_s", "s"},
	{"engine.supersteps", "count"},
	{"engine.us_per_superstep", "us"},
	{"engine.allocs_per_superstep", "count"},
	{"engine.alloc_mb", "MB"},
	{"engine.edges_per_s", "edges/s"},
	{"service.lookup_handler_us", "us"},
	{"service.churn_handler_ms", "ms"},
	{"service.http_overhead_us", "us"},
	{"service.lookup_p99_ms", "ms"},
	{"service.churn_p50_ms", "ms"},
	{"service.churn_p99_ms", "ms"},
	{"service.requests", "count"},
	{"service.client_errors", "count"},
	{"service.server_errors", "count"},
	{"service.assignment_builds", "count"},
	{"runtime.gc_cycles", "count/op"},
	{"runtime.gc_pause_s", "s/op"},
	{"partition.ingress_speedup_vs_1w", "ratio"},
	{"engine.speedup_vs_1w", "ratio"},
	{"partition.stream_speedup_vs_1w", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"bench.self_s", "s"},
	{"graph.self_s", "s"},
	{"partition.self_s", "s"},
	{"engine.self_s", "s"},
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := execute(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench: printing the result:", err)
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{size: fullSize}
	var seed uint64
	var seconds float64
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (pipeline-powerlaw, pipeline-road, stream-ingest, service-mix)")
	fs.Uint64Var(&seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&seconds, "seconds", 20, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	fs.StringVar(&cfg.workDir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for generated inputs (removed at exit)")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "where the traced run writes its spans (default <workdir>/../trace-<workload>.json, replaced by each traced run)")
	fs.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the measured phase to this file")
	fs.StringVar(&cfg.memProfile, "memprofile", "", "write a heap profile taken at the end of the measured phase to this file")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive, got %g", seconds)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.seed, cfg.seconds, cfg.trace = seed, time.Duration(seconds*float64(time.Second)), trace == 1
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(filepath.Dir(cfg.workDir), "trace-"+cfg.workload+".json")
	}
	return cfg, nil
}

// bench is the state of one run: its configuration, the operation
// counters every workload feeds, and the metrics it reports.
type bench struct {
	cfg       config
	dir       string // this run's private scratch directory
	attempted atomic.Int64
	failed    atomic.Int64
	samples   map[string]int // sample count behind each timing metric
	metrics   map[string]float64
	logMu     sync.Mutex
	logged    int
	stderr    io.Writer
	// tracer holds the traced run's spans, written out when the run ends.
	tracer *tracer
}

// result is what one run prints.
type result struct {
	attempted, failed int64
	metrics           map[string]metricValue
	samples           map[string]int
	defs              []metricDef
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func execute(cfg config, stderr io.Writer) (*result, error) {
	var runFn func(*bench) error
	for _, w := range workloads {
		if w.name == cfg.workload {
			runFn = w.run
		}
	}
	if runFn == nil {
		return nil, fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{cfg: cfg, dir: dir, samples: map[string]int{}, metrics: map[string]float64{}, stderr: stderr}
	if err := runFn(b); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		if err := b.tracer.write(cfg.traceOut); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	res := &result{attempted: b.attempted.Load(), failed: b.failed.Load(),
		metrics: map[string]metricValue{}, samples: b.samples, defs: defs}
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok && !cfg.trace {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", cfg.workload, d.name)
		}
		res.metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}

// print writes one human-readable line per metric, then the JSON result as
// the last line.
func (r *result) print(w io.Writer) error {
	for _, d := range r.defs {
		line := fmt.Sprintf("%-36s %16.6g %s", d.name, r.metrics[d.name].Value, d.unit)
		if n, ok := r.samples[d.name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	errRate := float64(r.failed) / float64(r.attempted)
	fmt.Fprintf(w, "%-36s %16.6g ratio  (%d of %d operations failed)\n", "error_rate", errRate, r.failed, r.attempted)
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		return err // a NaN or infinite metric
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// op counts one attempted operation; a non-nil err counts it as failed.
func (b *bench) op(err error) {
	b.attempted.Add(1)
	if err != nil {
		b.failed.Add(1)
		b.logMu.Lock()
		defer b.logMu.Unlock()
		if b.logged < 10 {
			fmt.Fprintf(b.stderr, "perfbench: %s: failed operation: %v\n", b.cfg.workload, err)
		}
		b.logged++
	}
}

// set records a metric value; n > 0 also records its sample count.
func (b *bench) set(name string, v float64, n int) {
	b.metrics[name] = v
	if n > 0 {
		b.samples[name] = n
	}
}

// timeSetup runs fn reps times and records the median as setup_s. Only
// the last repetition's inputs are kept: fn must replace, not add to, what
// an earlier repetition built.
func (b *bench) timeSetup(reps int, fn func(rep int) error) error {
	if b.cfg.trace {
		reps = 1 // the traced run reports no setup_s
	}
	times := make([]float64, reps)
	for rep := range times {
		runtime.GC() // each repetition starts from the same heap
		start := time.Now()
		if err := fn(rep); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		times[rep] = time.Since(start).Seconds()
	}
	b.set("setup_s", median(times), len(times))
	return nil
}

// measure runs the measured phase under the requested CPU and heap
// profiles. Profiles cover only the measured phase, never set-up.
func (b *bench) measure(fn func() error) error {
	if b.cfg.cpuProfile != "" {
		f, err := os.Create(b.cfg.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := fn(); err != nil {
		return err
	}
	if b.cfg.memProfile != "" {
		f, err := os.Create(b.cfg.memProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// heldMB is the memory the Go runtime holds from the operating system, in
// MiB: everything it has mapped minus what it has returned. The runtime
// returns freed memory only gradually, so read at the end of an operation
// this is close to the operation's high-water mark; it leaves out only pages
// the kernel has not faulted in. It is one runtime/metrics read, cheap
// enough for the untraced run.
func heldMB() float64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(s)
	return mb(s[0].Value.Uint64() - s[1].Value.Uint64())
}

// median returns the middle value of xs (the mean of the middle two for
// even lengths); 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
