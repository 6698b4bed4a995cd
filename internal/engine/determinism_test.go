package engine_test

import (
	"fmt"
	"reflect"
	"testing"

	"graphpart/internal/app"
	"graphpart/internal/cluster"
	"graphpart/internal/engine"
	"graphpart/internal/gen"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

// detCase is one application configuration of the determinism suite. Values
// are returned as `any` so every app shares one comparison path.
type detCase struct {
	name string
	run  func(mode engine.Mode, a *partition.Assignment, workers int) (any, engine.Stats, error)
}

func detOpts(workers int) engine.Options {
	return engine.Options{HighDegreeThreshold: 30, Workers: workers, MaxSupersteps: 4000}
}

func detCases(model cluster.CostModel) []detCase {
	return []detCase{
		{"PageRank(10)", func(mode engine.Mode, a *partition.Assignment, w int) (any, engine.Stats, error) {
			opts := detOpts(w)
			opts.MaxSupersteps = 0
			opts.FixedIterations = 10
			out, err := engine.Run[float64, float64](mode, app.PageRank{}, a, cluster.Local9, model, opts)
			if err != nil {
				return nil, engine.Stats{}, err
			}
			return out.Values, out.Stats, nil
		}},
		{"PageRank(C)", func(mode engine.Mode, a *partition.Assignment, w int) (any, engine.Stats, error) {
			out, err := engine.Run[float64, float64](mode, app.PageRank{Tolerance: 1e-2}, a, cluster.Local9, model, detOpts(w))
			if err != nil {
				return nil, engine.Stats{}, err
			}
			return out.Values, out.Stats, nil
		}},
		{"WCC", func(mode engine.Mode, a *partition.Assignment, w int) (any, engine.Stats, error) {
			out, err := engine.Run[uint32, uint32](mode, app.WCC{}, a, cluster.Local9, model, detOpts(w))
			if err != nil {
				return nil, engine.Stats{}, err
			}
			return out.Values, out.Stats, nil
		}},
		{"SSSP", func(mode engine.Mode, a *partition.Assignment, w int) (any, engine.Stats, error) {
			out, err := engine.Run[float64, float64](mode, app.SSSP{Source: 0}, a, cluster.Local9, model, detOpts(w))
			if err != nil {
				return nil, engine.Stats{}, err
			}
			return out.Values, out.Stats, nil
		}},
		{"K-Core", func(mode engine.Mode, a *partition.Assignment, w int) (any, engine.Stats, error) {
			cores, stats, err := app.KCoreDecomposition(mode, 3, 6, a, cluster.Local9, model, detOpts(w))
			return cores, stats, err
		}},
		{"Coloring", func(mode engine.Mode, a *partition.Assignment, w int) (any, engine.Stats, error) {
			out, err := engine.Run[int32, app.ColorSet](mode, app.Coloring{}, a, cluster.Local9, model, detOpts(w))
			if err != nil {
				return nil, engine.Stats{}, err
			}
			return out.Values, out.Stats, nil
		}},
	}
}

// TestParallelEngineDeterminism pins the tentpole contract: for every
// application, engine mode, and representative strategy, a parallel run
// (Workers ≥ 2) produces byte-identical Stats and Values to the sequential
// run (Workers = 1). This is what lets the simulation keep its "metrics are
// deterministic functions of partitioning quality" claim while executing on
// however many cores the host has.
func TestParallelEngineDeterminism(t *testing.T) {
	// fractional has prices no float64 sum represents exactly: worker
	// independence must not rest on the default model's integer prices.
	fractional := model
	fractional.GatherEdgeNs, fractional.ApplyVertexNs, fractional.ScatterEdgeNs = 0.1, 0.3, 0.7
	models := []struct {
		prefix  string
		m       cluster.CostModel
		workers []int
	}{
		{"", model, []int{4}},
		{"fractional/", fractional, []int{2, 7}},
	}
	graphs := map[string]*graph.Graph{
		// Skewed: a few shards carry hub vertices, stressing the dynamic
		// shard scheduler.
		"power-law": gen.PrefAttach("det-plaw", 2200, 5, 0x9),
	}
	strategies := []string{"Random", "Hybrid"}
	if !testing.Short() {
		strategies = append(strategies, "Grid", "HDRF")
		models[0].workers = append(models[0].workers, 2, 7)
		// High-diameter: thousands of small frontiers exercise the inline
		// (single-shard) path against the sharded one.
		graphs["road-net"] = gen.RoadNet("det-road", 45, 45, 0x9)
	}
	modes := []engine.Mode{engine.ModePowerGraph, engine.ModePowerLyra}

	for gname, g := range graphs {
		for _, strat := range strategies {
			s := partition.MustNew(strat, partition.Options{HybridThreshold: 30})
			a, err := partition.ParallelPartition(g, s, 9, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, mc := range models {
				for _, mode := range modes {
					for _, tc := range detCases(mc.m) {
						t.Run(fmt.Sprintf("%s%s/%s/mode%d/%s", mc.prefix, gname, strat, mode, tc.name), func(t *testing.T) {
							seqVals, seqStats, err := tc.run(mode, a, 1)
							if err != nil {
								t.Fatal(err)
							}
							for _, w := range mc.workers {
								parVals, parStats, err := tc.run(mode, a, w)
								if err != nil {
									t.Fatal(err)
								}
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
	}
}

// TestFixedIterationsIncludesIsolatedVertices is the regression test for the
// frontier-rebuild bug: in FixedIterations mode, isolated vertices (Master <
// 0) were skipped by the all-active rebuild and never reached Apply, so
// PageRank(10) silently kept their init value instead of the (1−d) floor the
// convergence-mode isolated-vertex branch computes.
func TestFixedIterationsIncludesIsolatedVertices(t *testing.T) {
	// Vertices 3 and 4 are isolated: they carry no edges but sit below the
	// max vertex id, exactly how degree-0 vertices appear in edge-list
	// datasets.
	g := graph.FromEdges("isolated", []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 5, Dst: 6},
	})
	a, err := partition.ParallelPartition(g, partition.Random{}, 9, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []graph.VertexID{3, 4} {
		if a.Master(v) >= 0 {
			t.Fatalf("test premise broken: vertex %d has a master", v)
		}
	}

	fixed, err := engine.Run[float64, float64](engine.ModePowerGraph, app.PageRank{}, a, cluster.Local9, model,
		engine.Options{FixedIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	conv, err := engine.Run[float64, float64](engine.ModePowerGraph, app.PageRank{}, a, cluster.Local9, model,
		engine.Options{MaxSupersteps: 200})
	if err != nil {
		t.Fatal(err)
	}
	// Compute the floor with the same runtime float64 arithmetic Apply
	// uses (1−0.85 is not exactly 0.15 in float64).
	d := float64(app.DefaultDamping)
	want := (1 - d) + d*0
	for _, v := range []graph.VertexID{3, 4} {
		if fixed.Values[v] != conv.Values[v] {
			t.Errorf("isolated vertex %d: PageRank(10) = %v, convergence mode = %v", v, fixed.Values[v], conv.Values[v])
		}
		if fixed.Values[v] != want {
			t.Errorf("isolated vertex %d: PageRank(10) = %v, want the (1−d) floor %v", v, fixed.Values[v], want)
		}
	}
}
