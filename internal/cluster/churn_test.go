package cluster

import (
	"testing"

	"graphpart/internal/gen"
	"graphpart/internal/partition"
)

func TestChurnWindowCheaperThanRepartition(t *testing.T) {
	g := gen.PrefAttach("pa", 5000, 5, 1)
	cfg := Config{Machines: 8}
	model := DefaultModel()
	for _, name := range []string{"2D", "HDRF"} {
		s := partition.MustNew(name, partition.Options{})
		a, err := partition.ParallelPartition(g, s, cfg.NumParts(), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		oneShot := Ingress(a, s, cfg, model).Seconds
		shape := partition.ShapeOf(s, cfg.NumParts())
		// A window touching 5% of the edges must be far cheaper than
		// repartitioning everything.
		win := ChurnWindow(shape, cfg.NumParts(), int64(g.NumEdges()/20), int64(g.NumEdges()/100), 0, cfg, model)
		if win.Seconds <= 0 {
			t.Fatalf("%s: non-positive window cost %v", name, win.Seconds)
		}
		if win.Seconds >= oneShot {
			t.Fatalf("%s: incremental window %vs not cheaper than one-shot ingress %vs", name, win.Seconds, oneShot)
		}
	}
}

func TestChurnWindowMonotoneInChurn(t *testing.T) {
	cfg := Config{Machines: 8}
	model := DefaultModel()
	shape := partition.ShapeOf(partition.MustNew("HDRF", partition.Options{}), 16)
	small := ChurnWindow(shape, 16, 1000, 100, 0, cfg, model)
	big := ChurnWindow(shape, 16, 10000, 1000, 500, cfg, model)
	if big.Seconds <= small.Seconds {
		t.Fatalf("10× churn not more expensive: %v vs %v", big.Seconds, small.Seconds)
	}
	if big.AssignSeconds <= small.AssignSeconds || big.ShuffleSeconds <= small.ShuffleSeconds {
		t.Fatal("phase costs not monotone in churn volume")
	}
}

func TestChurnWindowHeuristicCostsMore(t *testing.T) {
	cfg := Config{Machines: 8}
	model := DefaultModel()
	hashShape := partition.ShapeOf(partition.MustNew("2D", partition.Options{}), 16)
	greedyShape := partition.ShapeOf(partition.MustNew("Oblivious", partition.Options{}), 16)
	h := ChurnWindow(hashShape, 16, 5000, 0, 0, cfg, model)
	gr := ChurnWindow(greedyShape, 16, 5000, 0, 0, cfg, model)
	if gr.AssignSeconds <= h.AssignSeconds {
		t.Fatalf("greedy assignment %vs not dearer than hash %vs", gr.AssignSeconds, h.AssignSeconds)
	}
}
