package partition

import (
	"fmt"
	"runtime"
	"sync"

	"graphpart/internal/graph"
)

// ParallelPartition partitions g with s and materializes the Assignment,
// using up to `workers` concurrent workers (≤0 means GOMAXPROCS; 1 is the
// sequential case). It is the only materialized ingress path: parallelism
// changes wall-clock, never placement, masters or metrics. A strategy's
// whole-graph Partition runs at most once per call, and only for
// multi-pass strategies.
func ParallelPartition(g *graph.Graph, s Strategy, numParts int, seed uint64, workers int) (*Assignment, error) {
	if workers <= 0 {
		//graphlint:nondet worker-count default only; placement is worker-count-independent (conformance_test.go)
		workers = runtime.GOMAXPROCS(0)
	}
	res, err := assign(g, s, numParts, seed, workers)
	if err != nil {
		return nil, err
	}
	return newAssignment(g, s.Name(), ShapeOf(s, numParts).Passes, numParts, seed, res, workers)
}

// assign computes a strategy's placement by capability:
//
//   - StatelessStrategy: the edge list shards across workers, each with its
//     own Assigner; master hints are produced per vertex shard.
//   - StreamingStrategy: each independent loader streams its own contiguous
//     block of the edge list, concurrently — the paper's multi-loader
//     ingress (§5.2.2).
//   - MultiPassStrategy: one run of the strategy's whole-graph Partition.
//
// A strategy with none of the capabilities gets an error wrapping
// ErrNoIngressCapability.
func assign(g *graph.Graph, s Strategy, numParts int, seed uint64, workers int) (*Result, error) {
	if numParts < 1 {
		return nil, fmt.Errorf("partition: numParts must be ≥1, got %d", numParts)
	}
	var res *Result
	var err error
	switch impl := s.(type) {
	case StatelessStrategy:
		res, err = assignStateless(g, impl, numParts, seed, workers)
	case StreamingStrategy:
		res = assignStreaming(g, impl, numParts, seed, workers)
	case MultiPassStrategy:
		res, err = impl.Partition(g, numParts, seed)
	default:
		return nil, noCapability(s)
	}
	if err != nil {
		return nil, fmt.Errorf("partition: strategy %s: %w", s.Name(), err)
	}
	if len(res.EdgeParts) != g.NumEdges() {
		return nil, fmt.Errorf("partition: strategy %s returned %d assignments for %d edges",
			s.Name(), len(res.EdgeParts), g.NumEdges())
	}
	return res, nil
}

// assignStateless shards the edge list across workers, each assigning
// with its own Assigner (pure per-edge function, so shard boundaries cannot
// change placement). When the assigner hints masters, the hint vector is
// filled per vertex shard — no full re-partition, ever.
func assignStateless(g *graph.Graph, s StatelessStrategy, numParts int, seed uint64, workers int) (*Result, error) {
	// One up-front assigner validates parameters and probes capabilities.
	probe, err := s.NewAssigner(numParts, seed)
	if err != nil {
		return nil, err
	}
	m := g.NumEdges()
	n := g.NumVertices()
	parts := make([]int32, m)
	var hint []int32
	if _, ok := probe.(MasterHinter); ok {
		hint = make([]int32, n)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			asg := probe
			if w > 0 {
				// Assigners may carry scratch state; one per goroutine.
				if asg, errs[w] = s.NewAssigner(numParts, seed); errs[w] != nil {
					return
				}
			}
			for i := m * w / workers; i < m*(w+1)/workers; i++ {
				parts[i] = asg.Assign(g.Edges[i])
			}
			if hint != nil {
				h := asg.(MasterHinter)
				for v := n * w / workers; v < n*(w+1)/workers; v++ {
					hint[v] = h.MasterHint(graph.VertexID(v))
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Result{EdgeParts: parts, MasterHint: hint}, nil
}

// assignStreaming runs a StreamingStrategy's independent loaders
// concurrently, each over its own contiguous edge block and private state.
// Loader blocks and per-loader seeds do not depend on the worker count, so
// neither does the placement. At most `workers` loader states are live at
// once, bounding memory.
func assignStreaming(g *graph.Graph, s StreamingStrategy, numParts int, seed uint64, workers int) *Result {
	m := g.NumEdges()
	nl := s.Loaders(numParts)
	if nl < 1 {
		nl = 1
	}
	parts := make([]int32, m)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for id := 0; id < nl; id++ {
		lo, hi := loaderBlock(m, nl, id)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(id, lo, hi int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ld := s.NewLoader(g.NumVertices(), numParts, id, seed)
			for i := lo; i < hi; i++ {
				parts[i] = ld.Assign(g.Edges[i])
			}
		}(id, lo, hi)
	}
	wg.Wait()
	return &Result{EdgeParts: parts}
}
