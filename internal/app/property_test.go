package app

import (
	"math"
	"testing"
	"testing/quick"

	"graphpart/internal/cluster"
	"graphpart/internal/engine"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

// randomGraphFrom turns fuzz bytes into a small graph.
func randomGraphFrom(raw []uint16) *graph.Graph {
	edges := make([]graph.Edge, 0, len(raw)/2)
	for i := 0; i+1 < len(raw); i += 2 {
		s, d := graph.VertexID(raw[i]%200), graph.VertexID(raw[i+1]%200)
		if s == d {
			continue
		}
		edges = append(edges, graph.Edge{Src: s, Dst: d})
	}
	return graph.FromEdges("fuzz", edges)
}

func runOn(g *graph.Graph) (*partition.Assignment, error) {
	return partition.ParallelPartition(g, partition.Random{}, 5, 1, 1)
}

var propCluster = cluster.Config{Machines: 5, PartsPerMachine: 1}

// TestWCCLabelsArePartitionProperty: for any graph, WCC labels form a valid
// partition — every edge connects same-labeled endpoints, and each label
// equals the minimum vertex id carrying it.
func TestWCCLabelsArePartitionProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		g := randomGraphFrom(raw)
		if g.NumEdges() == 0 {
			return true
		}
		a, err := runOn(g)
		if err != nil {
			return false
		}
		out, err := engine.Run[uint32, uint32](engine.ModePowerGraph, WCC{}, a, propCluster, testModel,
			engine.Options{MaxSupersteps: 4000})
		if err != nil || !out.Stats.Converged {
			return false
		}
		labels := out.Values
		for _, e := range g.Edges {
			if labels[e.Src] != labels[e.Dst] {
				return false
			}
		}
		// The label of each component is its smallest member id.
		for v, l := range labels {
			if uint32(v) < l {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSSSPTriangleInequalityProperty: for any graph, converged distances
// satisfy |d(u) − d(v)| ≤ 1 across every (undirected) edge, and d is 0 only
// at the source.
func TestSSSPTriangleInequalityProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		g := randomGraphFrom(raw)
		if g.NumEdges() == 0 {
			return true
		}
		a, err := runOn(g)
		if err != nil {
			return false
		}
		src := g.Edges[0].Src
		out, err := engine.Run[float64, float64](engine.ModePowerGraph, SSSP{Source: src}, a, propCluster, testModel,
			engine.Options{MaxSupersteps: 4000})
		if err != nil || !out.Stats.Converged {
			return false
		}
		d := out.Values
		if d[src] != 0 {
			return false
		}
		for _, e := range g.Edges {
			du, dv := d[e.Src], d[e.Dst]
			if math.IsInf(du, 1) != math.IsInf(dv, 1) {
				return false // an edge connects reached and unreached
			}
			if !math.IsInf(du, 1) && math.Abs(du-dv) > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestColoringProperProperty: the coloring program produces a proper
// coloring on any graph.
func TestColoringProperProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		g := randomGraphFrom(raw)
		if g.NumEdges() == 0 {
			return true
		}
		a, err := runOn(g)
		if err != nil {
			return false
		}
		out, err := engine.Run[int32, ColorSet](engine.ModePowerGraph, Coloring{}, a, propCluster, testModel,
			engine.Options{MaxSupersteps: 4000})
		if err != nil || !out.Stats.Converged {
			return false
		}
		return ValidColoring(g, out.Values)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestKCoreMonotoneProperty: the k-core shrinks (weakly) as k grows, and
// every surviving vertex has ≥ k neighbors inside the core.
func TestKCoreMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		g := randomGraphFrom(raw)
		if g.NumEdges() == 0 {
			return true
		}
		a, err := runOn(g)
		if err != nil {
			return false
		}
		core, stats, err := KCoreDecomposition(engine.ModePowerGraph, 2, 5, a, propCluster, testModel,
			engine.Options{MaxSupersteps: 4000})
		if err != nil || !stats.Converged {
			return false
		}
		for k := 2; k <= 5; k++ {
			inCore := func(v graph.VertexID) bool { return core[v] >= k }
			for v := 0; v < g.NumVertices(); v++ {
				if !inCore(graph.VertexID(v)) {
					continue
				}
				deg := 0
				for _, u := range g.OutNeighbors(graph.VertexID(v)) {
					if inCore(u) {
						deg++
					}
				}
				for _, u := range g.InNeighbors(graph.VertexID(v)) {
					if inCore(u) {
						deg++
					}
				}
				if deg < k {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPageRankMassProperty: with damping d, the converged total mass is
// bounded: each vertex's rank sits in [1−d, 1 + d·maxInDeg].
func TestPageRankMassProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		g := randomGraphFrom(raw)
		if g.NumEdges() == 0 {
			return true
		}
		a, err := runOn(g)
		if err != nil {
			return false
		}
		out, err := engine.Run[float64, float64](engine.ModePowerGraph, PageRank{}, a, propCluster, testModel,
			engine.Options{MaxSupersteps: 4000})
		if err != nil {
			return false
		}
		for v, r := range out.Values {
			if r < 0.15-1e-9 {
				return false
			}
			if r > 0.15+0.85*float64(g.InDegree(graph.VertexID(v)))*3+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
