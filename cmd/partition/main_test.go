package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphpart/internal/gen"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestListStrategiesGolden pins the -strategies listing byte-for-byte: all
// 16 registered strategies must appear with the capability class derived
// from their declared ingress capability. A new strategy, a renamed one, or
// a capability change all surface here as a golden diff (refresh with
// `go test ./cmd/partition -run ListStrategies -update`).
func TestListStrategiesGolden(t *testing.T) {
	var sb strings.Builder
	listStrategies(&sb, 9, 30) // the CLI's default -parts and -hybrid-threshold
	got := sb.String()

	for _, name := range partition.AllNames() {
		if !strings.Contains(got, name+"  ") {
			t.Errorf("listing missing strategy %q", name)
		}
	}
	if n := strings.Count(got, "\n"); n != len(partition.AllNames())+1 {
		t.Errorf("listing has %d lines, want header + %d strategies", n, len(partition.AllNames()))
	}

	golden := filepath.Join("testdata", "strategies.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("-strategies output drifted from golden (run with -update to refresh):\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestRunChurnRendersWindowsAndSummary(t *testing.T) {
	g := gen.PrefAttach("pa", 1500, 4, 3)
	var sb strings.Builder
	err := runChurn(&sb, g, partition.MustNew("HDRF", partition.Options{Loaders: 1}), churnOptions{
		Parts: 8, Seed: 1, Windows: 4, DelFrac: 0.2, Rebalance: 1.3, Hot: 8, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"window 0:", "window 3:", "replication factor:", "edge balance:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "window 4:") {
		t.Errorf("more windows than requested:\n%s", out)
	}
}

func TestRunChurnDeterministic(t *testing.T) {
	g := gen.RoadNet("road", 20, 20, 2)
	render := func() string {
		var sb strings.Builder
		if err := runChurn(&sb, g, partition.MustNew("2D", partition.Options{}), churnOptions{
			Parts: 9, Seed: 5, Windows: 3, DelFrac: 0.3, Workers: 1,
		}); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if a, b := render(), render(); a != b {
		t.Errorf("churn replay not deterministic:\n%s\n---\n%s", a, b)
	}
}

func TestRunChurnMultiPassRepartitions(t *testing.T) {
	g := gen.PrefAttach("pa", 800, 3, 1)
	var sb strings.Builder
	err := runChurn(&sb, g, partition.MustNew("Hybrid", partition.Options{HybridThreshold: 30}), churnOptions{
		Parts: 8, Seed: 1, Windows: 2, DelFrac: 0.1, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "(repartitioned)") {
		t.Errorf("multi-pass churn should note per-window repartitioning:\n%s", sb.String())
	}
}

// TestStreamMatchesMaterialized: -stream at any -workers prints exactly the
// metric block the materialized path prints for the same graph — RF, total
// replicas, balance and the per-partition table — and strategies that cannot
// stream are refused with the reason.
func TestStreamMatchesMaterialized(t *testing.T) {
	g := gen.RoadNet("road", 30, 30, 4)
	input := filepath.Join(t.TempDir(), "road.txt")
	if err := graph.SaveEdgeList(g, input); err != nil {
		t.Fatal(err)
	}
	grid := partition.MustNew("Grid", partition.Options{})
	a, err := partition.ParallelPartition(g, grid, 9, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	printMetrics(&want, grid, 9, a, a.EdgeCount, true, "")

	for _, workers := range []int{1, 3} {
		var out strings.Builder
		err := streamPartition(&out, grid, streamOptions{Input: input, Parts: 9, Workers: workers, Seed: 1, Batch: 100, Verbose: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		header, metrics, _ := strings.Cut(out.String(), "\n")
		if !strings.Contains(header, "(streamed)") {
			t.Errorf("workers=%d: header %q does not mark the run as streamed", workers, header)
		}
		if metrics != want.String() {
			t.Errorf("workers=%d: streamed metrics differ from materialized:\n got:\n%s\nwant:\n%s", workers, metrics, want.String())
		}
	}

	for name, reason := range map[string]string{
		"Oblivious": "per-vertex placement state",
		"Hybrid":    "degree-counting scan",
	} {
		s := partition.MustNew(name, partition.Options{HybridThreshold: 30})
		err := streamPartition(io.Discard, s, streamOptions{Input: input, Parts: 9, Workers: 2, Seed: 1})
		if err == nil || !strings.Contains(err.Error(), reason) {
			t.Errorf("%s: -stream error %v, want a refusal naming %q", name, err, reason)
		}
	}
}
