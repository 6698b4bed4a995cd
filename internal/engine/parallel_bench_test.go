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
// throughput on the two workload shapes the paper's experiments span: a
// high-diameter road network (many supersteps, small frontiers) and a
// skewed power-law graph (few supersteps, hub-heavy frontiers). On a
// multi-core host workers=all should beat workers=1 on the power-law graph;
// the road network bounds the sharding overhead in the regime parallelism
// cannot help.
func BenchmarkEngineParallel(b *testing.B) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"road-net", gen.RoadNet("bench-road", 250, 250, 1)},
		{"power-law", gen.PrefAttach("bench-plaw", 100000, 8, 1)},
	}
	for _, gr := range graphs {
		a, err := partition.ParallelPartition(gr.g, partition.Random{}, 9, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		gr.g.EnsureCSR()
		for _, w := range []int{1, 0} {
			label := fmt.Sprintf("%s/workers=1", gr.name)
			if w == 0 {
				label = fmt.Sprintf("%s/workers=all", gr.name)
			}
			b.Run(label, func(b *testing.B) {
				var edges int64
				for i := 0; i < b.N; i++ {
					out, err := engine.Run[float64, float64](engine.ModePowerGraph, app.PageRank{}, a,
						cluster.Local9, model, engine.Options{FixedIterations: 3, Workers: w})
					if err != nil {
						b.Fatal(err)
					}
					edges += out.Stats.EdgesProcessed
				}
				b.ReportMetric(float64(edges)/b.Elapsed().Seconds(), "edges/s")
			})
		}
	}
}
