package engine_test

import (
	"fmt"
	"testing"

	"graphpart/internal/app"
	"graphpart/internal/cluster"
	"graphpart/internal/engine"
	"graphpart/internal/gen"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

// BenchmarkEngineParallel records sequential vs parallel superstep
// throughput on the workload shapes the paper's experiments span: a skewed
// power-law graph (few supersteps, hub-heavy frontiers) and a high-diameter
// road network (many supersteps, small frontiers). The HDRF PageRank(10) and
// road SSSP cases are the engine halves of perfbench's pipeline-powerlaw and
// pipeline-road workloads; SSSP's long tail of small frontiers runs inline
// (one shard), so there workers=all can at best match workers=1. Compare
// workers=1 against workers=all on the same host: parallelism pays only
// when frontiers are large and cores are idle.
func BenchmarkEngineParallel(b *testing.B) {
	road := gen.RoadNet("bench-road", 250, 250, 1)
	plaw := gen.PrefAttach("bench-plaw", 100000, 8, 1)
	pageRank := func(iters int) func(a *partition.Assignment, w int) (int64, error) {
		return func(a *partition.Assignment, w int) (int64, error) {
			out, err := engine.Run[float64, float64](engine.ModePowerGraph, app.PageRank{}, a,
				cluster.Local9, model, engine.Options{FixedIterations: iters, Workers: w})
			if err != nil {
				return 0, err
			}
			return out.Stats.EdgesProcessed, nil
		}
	}
	sssp := func(a *partition.Assignment, w int) (int64, error) {
		out, err := engine.Run[float64, float64](engine.ModePowerGraph, app.SSSP{Source: 0}, a,
			cluster.Local9, model, engine.Options{Workers: w})
		if err != nil {
			return 0, err
		}
		return out.Stats.EdgesProcessed, nil
	}
	cases := []struct {
		name     string
		g        *graph.Graph
		strategy string
		run      func(a *partition.Assignment, w int) (int64, error)
	}{
		{"road-net", road, "Random", pageRank(3)},
		{"power-law", plaw, "Random", pageRank(3)},
		{"power-law/HDRF/PageRank(10)", plaw, "HDRF", pageRank(10)},
		{"road-net/Grid/SSSP", road, "Grid", sssp},
	}
	for _, c := range cases {
		a, err := partition.ParallelPartition(c.g, partition.MustNew(c.strategy, partition.Options{}), 9, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		c.g.EnsureCSR()
		for _, w := range []int{1, 0} {
			label := fmt.Sprintf("%s/workers=1", c.name)
			if w == 0 {
				label = fmt.Sprintf("%s/workers=all", c.name)
			}
			b.Run(label, func(b *testing.B) {
				b.ReportAllocs()
				var edges int64
				for i := 0; i < b.N; i++ {
					e, err := c.run(a, w)
					if err != nil {
						b.Fatal(err)
					}
					edges += e
				}
				b.ReportMetric(float64(edges)/b.Elapsed().Seconds(), "edges/s")
			})
		}
	}
}
