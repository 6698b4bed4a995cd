package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the test holds the command
// to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// printed is the JSON object a run prints as its last line.
type printed struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// tinyRun runs one workload at tinySize and returns what it printed.
func tinyRun(t *testing.T, workload string, trace, wrongRef bool) printed {
	t.Helper()
	dir := t.TempDir()
	cfg := config{
		workload: workload, seed: 3, seconds: 300 * time.Millisecond, trace: trace,
		workDir: filepath.Join(dir, "work"), traceOut: filepath.Join(dir, "spans.json"),
		size: tinySize, wrongRef: wrongRef,
	}
	var stderr bytes.Buffer
	res, err := execute(cfg, &stderr)
	if err != nil {
		t.Fatalf("%s (trace=%v): %v\n%s", workload, trace, err, stderr.String())
	}
	var stdout bytes.Buffer
	if err := res.print(&stdout); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var p printed
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v", workload, err)
	}
	// Every line before the JSON reads "<name> <value> <unit> ...".
	human := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) >= 3 {
			human[f[0]] = f[2]
		}
	}
	for _, d := range res.defs {
		if human[d.name] != d.unit {
			t.Errorf("%s: human-readable line for %s gives unit %q, want %q", workload, d.name, human[d.name], d.unit)
		}
	}
	if trace {
		if _, err := os.Stat(cfg.traceOut); err != nil {
			t.Errorf("%s: traced run wrote no spans: %v", workload, err)
		}
	}
	return p
}

// TestEveryWorkloadPrintsEveryMetric runs each workload of BENCHMARK.json
// at a tiny input size, untraced and traced, and holds each run to the
// metric list BENCHMARK.json declares: every name printed with its unit,
// end-to-end values never 0, and no operation failing.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if workloads[i].name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json says %s, the command says %s", i, w.Name, workloads[i].name)
		}
		for _, trace := range []bool{false, true} {
			p := tinyRun(t, w.Name, trace, false)
			if !p.Correct || p.Failed != 0 || p.Attempted < 1 {
				t.Errorf("%s (trace=%v): correct=%v, %d of %d operations failed", w.Name, trace, p.Correct, p.Failed, p.Attempted)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(p.Metrics) != len(want) {
				t.Errorf("%s (trace=%v): printed %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(p.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := p.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace=%v): metric %s not printed", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (trace=%v): metric %s printed in %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestWrongReferenceCountsAsFailures corrupts each workload's reference
// and expects the output checks to count the mismatches as failures.
func TestWrongReferenceCountsAsFailures(t *testing.T) {
	for _, w := range workloads {
		p := tinyRun(t, w.name, false, true)
		if p.Correct || p.Failed == 0 {
			t.Errorf("%s: a wrong reference gave correct=%v with %d of %d operations failed", w.name, p.Correct, p.Failed, p.Attempted)
		}
	}
}

// TestSelfTimeCheckCatchesOverlap builds a trace whose two children
// overlap, and one whose self times fall short of the pass's wall-clock;
// each must count as a failure, and a well-formed trace must not.
func TestSelfTimeCheckCatchesOverlap(t *testing.T) {
	const ms = int64(time.Millisecond)
	cases := []struct {
		name   string
		spans  []span
		wall   float64
		failed int64
	}{
		{"well-formed", []span{
			{ID: 2, Parent: 1, Trace: 1, Name: "graph.LoadFile", Start: 1 * ms, End: 4 * ms},
			{ID: 3, Parent: 1, Trace: 1, Name: "engine.Run", Start: 4 * ms, End: 9 * ms},
			{ID: 1, Trace: 1, Name: "bench.pass", Start: 0, End: 10 * ms},
		}, 0.010, 0},
		{"overlapping children", []span{
			{ID: 2, Parent: 1, Trace: 1, Name: "graph.LoadFile", Start: 1 * ms, End: 8 * ms},
			{ID: 3, Parent: 1, Trace: 1, Name: "engine.Run", Start: 4 * ms, End: 9 * ms},
			{ID: 1, Trace: 1, Name: "bench.pass", Start: 0, End: 10 * ms},
		}, 0.010, 1},
		{"pass longer than its spans", []span{
			{ID: 1, Trace: 1, Name: "bench.pass", Start: 0, End: 10 * ms},
		}, 0.020, 1},
	}
	for _, c := range cases {
		b := &bench{stderr: &bytes.Buffer{}}
		tr := &tracer{spans: c.spans}
		perTrace, roots := tr.byTrace()
		checkSelfTimes(b, perTrace, roots, map[int64]float64{1: c.wall})
		if b.attempted.Load() != 1 || b.failed.Load() != c.failed {
			t.Errorf("%s: %d of %d checks failed, want %d of 1", c.name, b.failed.Load(), b.attempted.Load(), c.failed)
		}
	}
}
