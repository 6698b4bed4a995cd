package graphx_test

import (
	"math"
	"reflect"
	"testing"

	"graphpart/internal/app"
	"graphpart/internal/cluster"
	"graphpart/internal/engine/graphx"
	"graphpart/internal/gen"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

var model = cluster.DefaultModel()

func gxAssignment(t *testing.T, g *graph.Graph, strategy string, cc cluster.Config) *partition.Assignment {
	t.Helper()
	s := partition.MustNew(strategy, partition.Options{HybridThreshold: 30})
	a, err := partition.ParallelPartition(g, s, cc.NumParts(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGraphXPageRankMatchesGAS(t *testing.T) {
	g := gen.PrefAttach("gx-test", 2000, 5, 0x9)
	cc := cluster.GraphXLocal9
	a := gxAssignment(t, g, "CanonicalRandom", cc)
	out, err := graphx.Run[float64, float64](app.PageRank{}, a, graphx.Config{Cluster: cc, Iterations: 10}, model)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: synchronous PageRank, 10 iterations.
	n := g.NumVertices()
	pr := make([]float64, n)
	next := make([]float64, n)
	for i := range pr {
		pr[i] = 1
	}
	for it := 0; it < 10; it++ {
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, u := range g.InNeighbors(graph.VertexID(v)) {
				sum += pr[u] / float64(g.OutDegree(u))
			}
			next[v] = 0.15 + 0.85*sum
		}
		pr, next = next, pr
	}
	for v := range pr {
		// Pregel activity semantics skip vertices whose neighbors stopped
		// changing (below the scatter tolerance), so allow the tolerance.
		if math.Abs(out.Values[v]-pr[v]) > math.Max(1e-3, pr[v]*1e-3) {
			t.Fatalf("pagerank[%d] = %v, ref %v", v, out.Values[v], pr[v])
		}
	}
	if out.Stats.Iterations != 10 {
		t.Errorf("Iterations = %d, want 10", out.Stats.Iterations)
	}
}

func TestGraphXCumulativeMonotone(t *testing.T) {
	g := gen.RoadNet("gx-road", 30, 30, 0x9)
	cc := cluster.GraphXLocal9
	a := gxAssignment(t, g, "2D", cc)
	out, err := graphx.Run[uint32, uint32](app.WCC{}, a, graphx.Config{Cluster: cc, Iterations: 25}, model)
	if err != nil {
		t.Fatal(err)
	}
	st := out.Stats
	if len(st.CumulativeSeconds) != len(st.IterSeconds) {
		t.Fatalf("cumulative/iteration length mismatch")
	}
	prev := st.PartitionSeconds
	for i, c := range st.CumulativeSeconds {
		if c < prev {
			t.Fatalf("cumulative time decreased at iteration %d: %v < %v", i+1, c, prev)
		}
		prev = c
	}
	if st.PartitionSeconds <= 0 {
		t.Error("partitioning phase should have positive cost")
	}
}

func TestGraphXConvergenceStopsEarly(t *testing.T) {
	// A tiny two-vertex graph converges long before 25 iterations.
	g := graph.FromEdges("tiny", []graph.Edge{{Src: 0, Dst: 1}})
	cc := cluster.Config{Machines: 1, PartsPerMachine: 2}
	a := gxAssignment(t, g, "CanonicalRandom", cc)
	out, err := graphx.Run[float64, float64](app.SSSP{Source: 0}, a, graphx.Config{Cluster: cc, Iterations: 25}, model)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Stats.Converged {
		t.Error("tiny SSSP did not converge")
	}
	if out.Stats.Iterations >= 25 {
		t.Errorf("ran all %d iterations", out.Stats.Iterations)
	}
	if out.Values[1] != 1 {
		t.Errorf("dist[1] = %v, want 1", out.Values[1])
	}
}

func TestGraphXMemoryCases(t *testing.T) {
	g := gen.PrefAttach("gx-mem", 3000, 6, 0xa)
	cc := cluster.GraphXLocal9
	a := gxAssignment(t, g, "CanonicalRandom", cc)

	var total float64
	for p := 0; p < a.NumParts; p++ {
		total += float64(a.ReplicasOnPart(p))*float64(model.ReplicaBytes) +
			float64(a.EdgeCount[p])*float64(model.EdgeMemBytes)
	}
	perMachine := total / float64(cc.Machines)

	run := func(mem float64) graphx.Stats {
		out, err := graphx.Run[float64, float64](app.PageRank{}, a,
			graphx.Config{Cluster: cc, Iterations: 5, ExecutorMemBytes: mem}, model)
		if err != nil {
			t.Fatal(err)
		}
		return out.Stats
	}

	// Case 1: can't fit anywhere.
	if st := run(model.ExecutorBase + perMachine/4); !st.Failed {
		t.Error("expected case-1 failure at tiny executor memory")
	}
	// Case 2: fits spread out, not in two executors.
	st2 := run(model.ExecutorBase + perMachine*1.5)
	if st2.Failed {
		t.Fatal("case 2 should not fail")
	}
	if st2.FitAttempts == 0 {
		t.Error("case 2 should need redistribution attempts")
	}
	// Case 3: fits in two executors on the first try.
	st3 := run(model.ExecutorBase + perMachine*float64(cc.Machines))
	if st3.Failed || st3.FitAttempts != 0 {
		t.Errorf("case 3: failed=%v attempts=%d", st3.Failed, st3.FitAttempts)
	}
	if st3.ComputeSeconds >= st2.ComputeSeconds {
		t.Errorf("ample memory (%.3fs) not faster than pressured (%.3fs)", st3.ComputeSeconds, st2.ComputeSeconds)
	}
	// GC overhead decreases with more memory.
	if st3.GCOverhead > st2.GCOverhead {
		t.Errorf("GC overhead grew with memory: %.2f > %.2f", st3.GCOverhead, st2.GCOverhead)
	}
	// No-pressure config reports GCOverhead 1.
	if st := run(0); st.GCOverhead != 1 {
		t.Errorf("unlimited memory GC overhead = %v, want 1", st.GCOverhead)
	}
}

func TestGraphXRejectsMismatchedCluster(t *testing.T) {
	g := gen.RoadNet("gx-bad", 10, 10, 1)
	a := gxAssignment(t, g, "CanonicalRandom", cluster.GraphXLocal9)
	_, err := graphx.Run[float64, float64](app.PageRank{}, a,
		graphx.Config{Cluster: cluster.GraphXLocal10, Iterations: 3}, model)
	if err == nil {
		t.Fatal("accepted mismatched cluster")
	}
}

func TestGraphXGreedyPartitioningSlower(t *testing.T) {
	// Ch. 9: ported greedy strategies partition more slowly than the
	// native hashes in GraphX.
	g := gen.PrefAttach("gx-greedy", 3000, 6, 0xb)
	cc := cluster.GraphXLocal9
	cr := gxAssignment(t, g, "CanonicalRandom", cc)
	hdrf := gxAssignment(t, g, "HDRF", cc)
	stCR, err := graphx.Run[float64, float64](app.PageRank{}, cr, graphx.Config{Cluster: cc, Iterations: 1}, model)
	if err != nil {
		t.Fatal(err)
	}
	stH, err := graphx.Run[float64, float64](app.PageRank{}, hdrf, graphx.Config{Cluster: cc, Iterations: 1}, model)
	if err != nil {
		t.Fatal(err)
	}
	if stH.Stats.PartitionSeconds <= stCR.Stats.PartitionSeconds {
		t.Errorf("HDRF partitioning %.4f ≤ CanonicalRandom %.4f",
			stH.Stats.PartitionSeconds, stCR.Stats.PartitionSeconds)
	}
}

// TestGraphXParallelDeterminism: the GraphX engine's sharded execution must
// be byte-identical to the sequential run for every worker count, exactly
// like the GAS engine's (see engine/determinism_test.go).
func TestGraphXParallelDeterminism(t *testing.T) {
	g := gen.PrefAttach("gx-det", 2200, 5, 0x9)
	cc := cluster.GraphXLocal9
	// fractional has prices no float64 sum represents exactly: worker
	// independence must not rest on the default model's integer prices.
	fractional := model
	fractional.RDDEdgeNs, fractional.ApplyVertexNs, fractional.TaskOverheadNs = 0.7, 0.3, 0.1
	for _, strat := range []string{"CanonicalRandom", "2D", "HDRF"} {
		a := gxAssignment(t, g, strat, cc)
		for _, tc := range []struct {
			prefix string
			model  cluster.CostModel
		}{{"", model}, {"fractional/", fractional}} {
			for _, appName := range []string{"PageRank", "WCC", "SSSP"} {
				model := tc.model
				t.Run(tc.prefix+strat+"/"+appName, func(t *testing.T) {
					run := func(workers int) (any, graphx.Stats) {
						gcfg := graphx.Config{Cluster: cc, Iterations: 15, Workers: workers}
						switch appName {
						case "PageRank":
							out, err := graphx.Run[float64, float64](app.PageRank{}, a, gcfg, model)
							if err != nil {
								t.Fatal(err)
							}
							return out.Values, out.Stats
						case "WCC":
							out, err := graphx.Run[uint32, uint32](app.WCC{}, a, gcfg, model)
							if err != nil {
								t.Fatal(err)
							}
							return out.Values, out.Stats
						default:
							out, err := graphx.Run[float64, float64](app.SSSP{Source: 0}, a, gcfg, model)
							if err != nil {
								t.Fatal(err)
							}
							return out.Values, out.Stats
						}
					}
					seqVals, seqStats := run(1)
					for _, w := range []int{2, 4, 7} {
						parVals, parStats := run(w)
						if !reflect.DeepEqual(seqVals, parVals) {
							t.Errorf("Workers=%d Values differ from Workers=1", w)
						}
						if !reflect.DeepEqual(seqStats, parStats) {
							t.Errorf("Workers=%d Stats differ from Workers=1:\nseq: %+v\npar: %+v", w, seqStats, parStats)
						}
					}
				})
			}
		}
	}
}

// TestGraphXIsolatedVertices: isolated vertices (Master < 0) change under
// Apply like any other, but hold no replicas, so they ship no value and
// charge no traffic.
func TestGraphXIsolatedVertices(t *testing.T) {
	g := graph.FromEdges("gx-isolated", []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 5, Dst: 6},
	})
	cc := cluster.GraphXLocal9
	a := gxAssignment(t, g, "CanonicalRandom", cc)
	out, err := graphx.Run[float64, float64](app.PageRank{}, a, graphx.Config{Cluster: cc, Iterations: 3}, model)
	if err != nil {
		t.Fatal(err)
	}
	d := float64(app.DefaultDamping)
	for _, v := range []graph.VertexID{3, 4} {
		if want := (1 - d) + d*0; out.Values[v] != want {
			t.Errorf("isolated vertex %d: PageRank = %v, want the (1−d) floor %v", v, out.Values[v], want)
		}
	}
}
