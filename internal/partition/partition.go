// Package partition implements the paper's primary subject: the thirteen
// partitioning strategies shipped by PowerGraph, PowerLyra and GraphX
// (Table 1.1 plus the thesis's 1D-Target variant and resilient Grid), and
// the vertex-cut bookkeeping — edge assignments, vertex replicas, masters,
// replication factor, and balance — that every engine and experiment is
// built on.
//
// # Ingress capabilities
//
// Strategies are dispatched by capability, never by name. Beyond the base
// Strategy interface (a name), a strategy implements exactly one of:
//
//   - StatelessStrategy: placement is a pure per-edge function (the hash
//     family: Random, CanonicalRandom, AsymRandom, 1D, 1D-Target, 2D, Grid,
//     ResilientGrid, PDS). The edge stream shards arbitrarily across
//     workers; per-vertex master hints, when produced, come from the
//     assigner's MasterHinter per vertex shard.
//   - StreamingStrategy: single-pass greedy ingress over independent
//     per-loader state (Oblivious, HDRF), matching the paper's
//     one-loader-per-machine semantics (§5.2.2). Loader blocks run
//     concurrently and the result does not depend on the worker count.
//   - MultiPassStrategy: cannot stream in one bounded-memory pass (Hybrid,
//     H-Ginger, HEP, JaBeJaSwap, Multilevel); declares its pass structure
//     and the reason, and is the only capability with a whole-graph
//     Partition method.
//
// ShapeOf folds these into an IngressShape for schedulers and cost models.
// New strategies self-register via Register from an init function; no
// central construction switch exists.
//
// Ingress has one materialized path and one streamed path.
// ParallelPartition produces an Assignment over an in-memory graph; one
// worker is its sequential case. A ShardedStreamBuilder consumes EdgeBatch
// chunks for a stateless strategy in O(workers·|V|·P/8) memory without
// ever holding the edge list; one worker is its sequential case.
// PartitionState maintains an assignment under churn on top of both.
package partition

import (
	"fmt"
	"slices"
	"sync"

	"graphpart/internal/graph"
	"graphpart/internal/metrics"
)

// Result is what a Strategy produces: a partition id per edge, and
// optionally a preferred master partition per vertex (PowerLyra's Hybrid
// family places low-degree masters with their in-edges; -1 or a missing
// hint means "pick the default master").
type Result struct {
	EdgeParts  []int32
	MasterHint []int32 // optional; len 0 or NumVertices
}

// Strategy is a named partitioning strategy. What it can do at ingress is
// declared by exactly one capability interface (StatelessStrategy,
// StreamingStrategy or MultiPassStrategy); Register rejects a strategy
// with none. Implementations must be deterministic for a given seed.
type Strategy interface {
	// Name returns the strategy's display name as used in the paper.
	Name() string
}

// Assignment is a fully-materialized vertex-cut partitioning of a graph:
// every edge placed on a partition, replica sets and masters derived, and
// the paper's quality metrics precomputed.
type Assignment struct {
	G        *graph.Graph
	NumParts int
	Strategy string
	Passes   int

	EdgeParts []int32
	Masters   []int32 // -1 for isolated vertices
	EdgeCount []int64 // edges per partition (aliases the quality summary)

	replicas     *bitMatrix // partitions holding any edge of v
	inEdgeParts  *bitMatrix // partitions holding ≥1 in-edge of v
	outEdgeParts *bitMatrix // partitions holding ≥1 out-edge of v

	// q holds the aggregate quality summary. The one-shot build is the
	// replay-from-empty case of the same incremental accumulator
	// PartitionState maintains under churn.
	q *metrics.Quality
}

// newAssignment materializes a strategy result into an Assignment with up
// to `workers` workers (≥1). Worker count never changes the result, only
// wall-clock. The strategy is identified by name and pass count rather than
// interface so deserialized assignments (whose strategy no longer exists as
// code) rebuild through the same validated builder.
//
// Phase 1 fills the edge counts and the replica/in/out bit-matrices,
// sharded by vertex range: each worker scans the whole edge list but only
// touches rows in its own range, so workers write disjoint rows and need no
// locks. The worker owning e.Src counts the edge, so every edge is counted
// exactly once. The scan is redundant (O(workers·m) reads), so the fan-out
// is capped: past a handful of workers the extra sequential reads cost more
// memory bandwidth than the divided random-access bit-sets save. Phase 2
// picks masters and accumulates replica counts, sharded by vertex range
// into private quality summaries whose merge is a sum.
func newAssignment(g *graph.Graph, name string, passes, numParts int, seed uint64, res *Result, workers int) (*Assignment, error) {
	n := g.NumVertices()
	m := g.NumEdges()
	a := &Assignment{
		G:            g,
		NumParts:     numParts,
		Strategy:     name,
		Passes:       passes,
		EdgeParts:    res.EdgeParts,
		q:            metrics.NewQuality(numParts),
		replicas:     newBitMatrix(n, numParts),
		inEdgeParts:  newBitMatrix(n, numParts),
		outEdgeParts: newBitMatrix(n, numParts),
	}
	a.EdgeCount = a.q.EdgeCounts()

	mw := min(workers, 8)
	counts := make([][]int64, mw)
	bad := make([]int, mw) // first invalid edge index each worker met, m = none
	var wg sync.WaitGroup
	for w := 0; w < mw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := make([]int64, numParts)
			counts[w], bad[w] = local, m
			// v is in this worker's rows iff v-vlo < span (unsigned).
			vlo := graph.VertexID(n * w / mw)
			span := graph.VertexID(n*(w+1)/mw) - vlo
			reps, outs, ins := a.replicas, a.outEdgeParts, a.inEdgeParts
			parts := res.EdgeParts[:m]
			for i, e := range g.Edges {
				// Every worker validates every edge, not only the ones it
				// owns, so no bit is ever set in a column ≥ numParts.
				p := parts[i]
				if p < 0 || int(p) >= numParts {
					bad[w] = i
					return
				}
				if e.Src-vlo < span {
					local[p]++
					reps.set(int(e.Src), int(p))
					outs.set(int(e.Src), int(p))
				}
				if e.Dst-vlo < span {
					reps.set(int(e.Dst), int(p))
					ins.set(int(e.Dst), int(p))
				}
			}
		}(w)
	}
	wg.Wait()
	if i := slices.Min(bad); i < m {
		return nil, fmt.Errorf("partition: strategy %s placed edge %d on partition %d (numParts=%d)",
			name, i, res.EdgeParts[i], numParts)
	}
	for _, local := range counts {
		for p, c := range local {
			if c != 0 {
				a.q.AddEdges(p, c)
			}
		}
	}

	// Pick masters. PowerGraph picks one replica at random (§5.1.1); we
	// pick deterministically by hashing the vertex over its replica list.
	// A strategy's MasterHint overrides this when the hinted partition
	// actually holds a replica (Hybrid's low-degree masters).
	a.Masters = make([]int32, n)
	locals := make([]*metrics.Quality, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := metrics.NewQuality(numParts)
			for v := n * w / workers; v < n*(w+1)/workers; v++ {
				reps := a.replicas.count(v)
				if reps == 0 {
					a.Masters[v] = -1
					continue
				}
				local.VertexPlaced()
				a.replicas.forEach(v, local.AddReplica)
				hint := int32(-1)
				if len(res.MasterHint) == n {
					hint = res.MasterHint[v]
				}
				a.Masters[v] = chooseMaster(a.replicas, v, reps, hint, numParts, seed)
			}
			locals[w] = local
		}(w)
	}
	wg.Wait()
	for _, local := range locals {
		a.q.Merge(local)
	}
	return a, nil
}

// Replicas returns the number of partitions vertex v is replicated on
// (master included). Zero for isolated vertices.
func (a *Assignment) Replicas(v graph.VertexID) int { return a.replicas.count(int(v)) }

// HasReplica reports whether partition p holds a replica of v.
func (a *Assignment) HasReplica(v graph.VertexID, p int) bool { return a.replicas.has(int(v), p) }

// ForEachReplica calls fn for each partition holding a replica of v.
func (a *Assignment) ForEachReplica(v graph.VertexID, fn func(p int)) {
	a.replicas.forEach(int(v), fn)
}

// Master returns the master partition of v, or -1 if v is isolated.
func (a *Assignment) Master(v graph.VertexID) int { return int(a.Masters[v]) }

// InEdgePartCount returns how many partitions hold at least one in-edge of v.
func (a *Assignment) InEdgePartCount(v graph.VertexID) int { return a.inEdgeParts.count(int(v)) }

// OutEdgePartCount returns how many partitions hold at least one out-edge of v.
func (a *Assignment) OutEdgePartCount(v graph.VertexID) int { return a.outEdgeParts.count(int(v)) }

// HasInEdges reports whether partition p holds ≥1 in-edge of v.
func (a *Assignment) HasInEdges(v graph.VertexID, p int) bool { return a.inEdgeParts.has(int(v), p) }

// HasOutEdges reports whether partition p holds ≥1 out-edge of v.
func (a *Assignment) HasOutEdges(v graph.VertexID, p int) bool { return a.outEdgeParts.has(int(v), p) }

// InEdgesLocalToMaster reports whether every in-edge of v lives on v's
// master partition — the condition under which PowerLyra's hybrid engine
// performs a purely local gather for an in-gathering application (§6.1).
func (a *Assignment) InEdgesLocalToMaster(v graph.VertexID) bool {
	m := a.Master(v)
	if m < 0 {
		return true
	}
	return a.inEdgeParts.onlyCol(int(v), m)
}

// OutEdgesLocalToMaster is InEdgesLocalToMaster for out-edges.
func (a *Assignment) OutEdgesLocalToMaster(v graph.VertexID) bool {
	m := a.Master(v)
	if m < 0 {
		return true
	}
	return a.outEdgeParts.onlyCol(int(v), m)
}

// ReplicationFactor returns the average number of images per vertex over
// all non-isolated vertices — the paper's headline partition-quality metric
// (§5.1.1).
func (a *Assignment) ReplicationFactor() float64 { return a.q.ReplicationFactor() }

// TotalReplicas returns the total number of vertex images across all
// partitions.
func (a *Assignment) TotalReplicas() int64 { return a.q.TotalReplicas() }

// EdgeBalance returns max(edges per partition) / mean(edges per partition),
// ≥1; 1.0 is perfectly balanced. The load-balance metric the strategies'
// heuristics optimize.
func (a *Assignment) EdgeBalance() float64 { return a.q.EdgeBalance() }

// ReplicasOnPart returns the number of vertex images partition p holds
// (precomputed during the build; O(1)).
func (a *Assignment) ReplicasOnPart(p int) int64 { return a.q.ReplicasOnPart(p) }

// Quality returns the assignment's aggregate quality summary.
func (a *Assignment) Quality() *metrics.Quality { return a.q }

// Mirrors returns the number of mirror images of v (replicas minus master).
func (a *Assignment) Mirrors(v graph.VertexID) int {
	r := a.Replicas(v)
	if r == 0 {
		return 0
	}
	return r - 1
}
