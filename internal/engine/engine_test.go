package engine_test

import (
	"testing"

	"graphpart/internal/app"
	"graphpart/internal/cluster"
	"graphpart/internal/engine"
	"graphpart/internal/gen"
	"graphpart/internal/partition"
)

func assignmentFor(t *testing.T, strategy string) *partition.Assignment {
	t.Helper()
	g := gen.PrefAttach("engine-test", 3000, 6, 0x5)
	s := partition.MustNew(strategy, partition.Options{HybridThreshold: 30})
	a, err := partition.ParallelPartition(g, s, 9, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

var model = cluster.DefaultModel()

func runPR(t *testing.T, mode engine.Mode, a *partition.Assignment) engine.Stats {
	t.Helper()
	out, err := engine.Run[float64, float64](mode, app.PageRank{}, a, cluster.Local9, model,
		engine.Options{FixedIterations: 10, HighDegreeThreshold: 30})
	if err != nil {
		t.Fatal(err)
	}
	return out.Stats
}

// TestLyraSavesTrafficForNaturalApps pins §6.1's core mechanism: on the
// same Hybrid assignment, the hybrid engine uses less network than the
// PowerGraph engine for a natural application.
func TestLyraSavesTrafficForNaturalApps(t *testing.T) {
	a := assignmentFor(t, "Hybrid")
	pg := runPR(t, engine.ModePowerGraph, a)
	lyra := runPR(t, engine.ModePowerLyra, a)
	if lyra.AvgNetInGB >= pg.AvgNetInGB {
		t.Errorf("hybrid engine net %.5f ≥ PowerGraph net %.5f", lyra.AvgNetInGB, pg.AvgNetInGB)
	}
	if lyra.ComputeSeconds >= pg.ComputeSeconds {
		t.Errorf("hybrid engine compute %.5f ≥ PowerGraph %.5f", lyra.ComputeSeconds, pg.ComputeSeconds)
	}
}

// TestLyraSavingLargerWithHybridPartitioning: the engine saving should be
// larger when the partitioner colocated gather-edges with masters (Hybrid)
// than when it scattered them (Random).
func TestLyraSavingLargerWithHybridPartitioning(t *testing.T) {
	hybrid := assignmentFor(t, "Hybrid")
	random := assignmentFor(t, "Random")
	hybridSaving := runPR(t, engine.ModePowerGraph, hybrid).AvgNetInGB - runPR(t, engine.ModePowerLyra, hybrid).AvgNetInGB
	randomSaving := runPR(t, engine.ModePowerGraph, random).AvgNetInGB - runPR(t, engine.ModePowerLyra, random).AvgNetInGB
	relHybrid := hybridSaving / runPR(t, engine.ModePowerGraph, hybrid).AvgNetInGB
	relRandom := randomSaving / runPR(t, engine.ModePowerGraph, random).AvgNetInGB
	if relHybrid <= relRandom {
		t.Errorf("relative saving: hybrid %.3f ≤ random %.3f", relHybrid, relRandom)
	}
}

// TestSameResultsAcrossModes: engine mode affects accounting, never values.
func TestSameResultsAcrossModes(t *testing.T) {
	a := assignmentFor(t, "Grid")
	pg, err := engine.Run[float64, float64](engine.ModePowerGraph, app.PageRank{}, a, cluster.Local9, model,
		engine.Options{FixedIterations: 7})
	if err != nil {
		t.Fatal(err)
	}
	lyra, err := engine.Run[float64, float64](engine.ModePowerLyra, app.PageRank{}, a, cluster.Local9, model,
		engine.Options{FixedIterations: 7, HighDegreeThreshold: 30})
	if err != nil {
		t.Fatal(err)
	}
	for v := range pg.Values {
		if pg.Values[v] != lyra.Values[v] {
			t.Fatalf("value[%d] differs across engine modes: %v vs %v", v, pg.Values[v], lyra.Values[v])
		}
	}
}

// TestNetworkScalesWithReplication pins Fig 5.3's mechanism at the engine
// level: same graph, same app, higher-RF assignment → more traffic.
func TestNetworkScalesWithReplication(t *testing.T) {
	random := assignmentFor(t, "Random")
	grid := assignmentFor(t, "Grid")
	if random.ReplicationFactor() <= grid.ReplicationFactor() {
		t.Skip("test premise (Random RF > Grid RF) does not hold on this graph")
	}
	netRandom := runPR(t, engine.ModePowerGraph, random).AvgNetInGB
	netGrid := runPR(t, engine.ModePowerGraph, grid).AvgNetInGB
	if netRandom <= netGrid {
		t.Errorf("Random (RF %.2f) net %.5f ≤ Grid (RF %.2f) net %.5f",
			random.ReplicationFactor(), netRandom, grid.ReplicationFactor(), netGrid)
	}
}

func TestMaxSuperstepsCap(t *testing.T) {
	a := assignmentFor(t, "Random")
	out, err := engine.Run[uint32, uint32](engine.ModePowerGraph, app.WCC{}, a, cluster.Local9, model,
		engine.Options{MaxSupersteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Supersteps > 2 {
		t.Errorf("ran %d supersteps with cap 2", out.Stats.Supersteps)
	}
	if out.Stats.Converged {
		t.Error("2-superstep WCC cannot have converged on this graph")
	}
}

func TestDirectionString(t *testing.T) {
	cases := map[engine.Direction]string{
		engine.DirNone: "none", engine.DirIn: "in",
		engine.DirOut: "out", engine.DirBoth: "both",
		engine.Direction(42): "?",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", d, got, want)
		}
	}
}

func TestSuperstepSecondsSumToCompute(t *testing.T) {
	a := assignmentFor(t, "HDRF")
	st := runPR(t, engine.ModePowerGraph, a)
	var sum float64
	for _, s := range st.SuperstepSeconds {
		sum += s
	}
	if diff := sum - st.ComputeSeconds; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("superstep seconds sum %v != compute %v", sum, st.ComputeSeconds)
	}
}
