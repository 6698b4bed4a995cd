package partition

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"graphpart/internal/gen"
	"graphpart/internal/graph"
)

// partsFor picks a partition count every strategy accepts: Grid needs a
// perfect square, PDS needs p²+p+1.
func partsFor(name string) int {
	if name == "PDS" {
		return 7
	}
	return 9
}

// countingMultiPass forwards a multi-pass strategy while counting how often
// its whole-graph Partition runs.
type countingMultiPass struct {
	MultiPassStrategy
	calls *int32
}

func (c countingMultiPass) Partition(g *graph.Graph, numParts int, seed uint64) (*Result, error) {
	atomic.AddInt32(c.calls, 1)
	return c.MultiPassStrategy.Partition(g, numParts, seed)
}

// TestParallelNeverPartitionsTwice is the regression test for the old
// hintOnce fallback, which re-ran a full sequential partition inside the
// parallel path to recover master hints. One ParallelPartition call must
// run a multi-pass strategy's whole-graph Partition exactly once.
func TestParallelNeverPartitionsTwice(t *testing.T) {
	g := gen.PrefAttach("par-count", 2000, 5, 0x13)
	for _, name := range AllNames() {
		mp, ok := MustNew(name, Options{HybridThreshold: 30}).(MultiPassStrategy)
		if !ok {
			continue
		}
		var calls int32
		if _, err := ParallelPartition(g, countingMultiPass{mp, &calls}, partsFor(name), 5, 4); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := atomic.LoadInt32(&calls); got != 1 {
			t.Errorf("%s: whole-graph Partition ran %d times in one ParallelPartition call, want 1", name, got)
		}
	}
}

// TestParallelRejectsBadAssignments asserts the builder validates partition
// ids at every worker count and reports the lowest invalid edge index, even
// when the invalid edges fall into different workers' vertex ranges.
func TestParallelRejectsBadAssignments(t *testing.T) {
	g := gen.RoadNet("par-bad", 5, 5, 1)
	m := g.NumEdges()
	bad := badStrategy{m - 1: 9, m / 2: -1, m / 3: 4}
	want := fmt.Sprintf("placed edge %d on partition 4", m/3)
	for _, workers := range []int{1, 2, 3, 16} {
		_, err := ParallelPartition(g, bad, 4, 1, workers)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("workers=%d: got %v, want an error naming %q", workers, err, want)
		}
	}
}

// TestParallelRejectsCapabilityless: a strategy with no ingress capability,
// or none at all, is an error wrapping ErrNoIngressCapability, never a panic.
func TestParallelRejectsCapabilityless(t *testing.T) {
	g := gen.RoadNet("par-nocap", 3, 3, 1)
	for _, s := range []Strategy{noCapStrategy{}, nil} {
		if _, err := ParallelPartition(g, s, 4, 1, 2); !errors.Is(err, ErrNoIngressCapability) {
			t.Errorf("%T: got %v, want ErrNoIngressCapability", s, err)
		}
	}
}

// badStrategy is a multi-pass strategy placing every edge on partition 0
// except the listed edge indices, which go where the map says.
type badStrategy map[int]int32

func (badStrategy) Name() string { return "Bad" }
func (badStrategy) MultiPass() (passes, heuristicPasses int, why string) {
	return 1, 0, "test fixture"
}
func (b badStrategy) Partition(g *graph.Graph, numParts int, seed uint64) (*Result, error) {
	parts := make([]int32, g.NumEdges())
	for i, p := range b {
		parts[i] = p
	}
	return &Result{EdgeParts: parts}, nil
}
