package partition

import (
	"errors"
	"fmt"

	"graphpart/internal/graph"
	"graphpart/internal/hashing"
	"graphpart/internal/metrics"
)

// ErrFeedAfterFinish is returned by ShardedStreamBuilder.Feed once Finish
// has been called: the summary has been derived and the builder accepts no
// more edges.
var ErrFeedAfterFinish = errors.New("partition: Feed after Finish")

// EdgeBatch is one chunk of an edge stream: a run of edges plus the global
// offset of Edges[0] within the stream. Batches are how the ingress pipeline
// moves edges between loaders, strategies and the assignment builder without
// ever requiring the whole edge list in memory.
type EdgeBatch struct {
	Offset int64
	Edges  []graph.Edge
}

// Assigner is a per-edge placement function produced by a StatelessStrategy
// for a fixed (numParts, seed). Assign must depend only on the edge — never
// on call order or on previously assigned edges — which is what makes
// stateless ingress embarrassingly parallel. Assigners may carry scratch
// buffers and are NOT safe for concurrent use; they are cheap to construct,
// so create one per goroutine.
type Assigner interface {
	Assign(e graph.Edge) int32
}

// MasterHinter is implemented by Assigners whose strategy also emits a
// per-vertex master hint (a pure function of the vertex id, e.g. 1D-Target's
// hash-by-target). Hints are produced per vertex shard by the parallel
// pipeline; no full sequential re-partition is ever needed.
type MasterHinter interface {
	MasterHint(v graph.VertexID) int32
}

// StatelessStrategy is the capability of the whole hash family (Random,
// CanonicalRandom, AsymRandom, 1D, 1D-Target, 2D, Grid, ResilientGrid, PDS):
// edge placement is a pure function of the edge, so the edge stream can be
// sharded arbitrarily across workers with no coordination and no state.
type StatelessStrategy interface {
	Strategy
	// NewAssigner builds the per-edge placement function for (numParts,
	// seed), returning an error for invalid partition counts (Grid's
	// perfect-square requirement, PDS's p²+p+1 requirement).
	NewAssigner(numParts int, seed uint64) (Assigner, error)
}

// Loader is one independent loader state of a StreamingStrategy. Assign
// consumes the loader's share of the edge stream in order, updating the
// loader's private state (placement sets, loads, partial degrees) as the
// paper's "oblivious" ingress does (§5.2.2).
type Loader interface {
	Assign(e graph.Edge) int32
}

// StreamingStrategy is the capability of the greedy single-pass family
// (Oblivious, HDRF): ingress runs as numLoaders *independent* loaders, each
// streaming a contiguous block of the edge list with its own private state
// and no cross-loader coordination — exactly the paper's multi-machine
// ingress semantics (§5.2.2). Because loaders never share state, the blocks
// can run concurrently and the result does not depend on the worker count.
// Every streaming strategy is greedy: it pays O(numParts) scoring per edge.
type StreamingStrategy interface {
	Strategy
	// Loaders returns the number of independent loader states used when
	// partitioning into numParts partitions (the paper runs one loader per
	// machine; the default is one per partition).
	Loaders(numParts int) int
	// NewLoader builds loader #id of Loaders(numParts) with its own seed
	// stream and private state.
	NewLoader(numVertices, numParts, id int, seed uint64) Loader
}

// MultiPassStrategy is the capability of strategies that cannot consume the
// edge stream in a single bounded-memory pass (Hybrid, H-Ginger, HEP,
// JaBeJaSwap, Multilevel). MultiPass declares the pass structure — total
// scans over the edge list, how many of them pay O(numParts) greedy scoring
// per edge — and why single-pass streaming is impossible, so schedulers and
// the ingress model need no per-name knowledge. Partition is the whole-graph
// placement; it is the only capability that has one.
type MultiPassStrategy interface {
	Strategy
	MultiPass() (passes, heuristicPasses int, why string)
	// Partition assigns every edge of g to one of numParts partitions.
	Partition(g *graph.Graph, numParts int, seed uint64) (*Result, error)
}

// IngressShape describes how a strategy consumes the edge stream during
// ingress, derived entirely from its capability interfaces. The cluster
// ingress model and scheduling decisions are functions of this shape, never
// of strategy names.
type IngressShape struct {
	// Passes is the number of full scans over the edge list.
	Passes int
	// HeuristicPasses is how many of those passes pay O(numParts) greedy
	// scoring per edge (0 for pure hash strategies).
	HeuristicPasses int
	// Streaming reports single-pass bounded-memory stream consumption.
	Streaming bool
	// Loaders is the number of independent loader states (0 when the
	// strategy keeps no per-loader state).
	Loaders int
	// MultiPassReason is non-empty for multi-pass strategies: why the
	// strategy cannot stream in one pass.
	MultiPassReason string
}

// ShapeOf derives a strategy's ingress shape from its capability:
// StatelessStrategy → one hash pass; StreamingStrategy → one greedy pass
// over independent sharded loaders; MultiPassStrategy → whatever the
// strategy declares. A strategy with no capability has the zero shape.
func ShapeOf(s Strategy, numParts int) IngressShape {
	switch c := s.(type) {
	case MultiPassStrategy:
		p, hp, why := c.MultiPass()
		return IngressShape{Passes: p, HeuristicPasses: hp, MultiPassReason: why}
	case StreamingStrategy:
		return IngressShape{Passes: 1, HeuristicPasses: 1, Streaming: true, Loaders: c.Loaders(numParts)}
	case StatelessStrategy:
		return IngressShape{Passes: 1, Streaming: true}
	}
	return IngressShape{}
}

// loaderBlock returns the contiguous edge-index range [lo, hi) streamed by
// loader id when m edges are striped over numLoaders loaders: edge i belongs
// to loader ⌊i·numLoaders/m⌋, matching PowerGraph's "split into as many
// blocks as there are machines" ingress (§5.3).
func loaderBlock(m, numLoaders, id int) (lo, hi int) {
	lo = (id*m + numLoaders - 1) / numLoaders
	hi = ((id+1)*m + numLoaders - 1) / numLoaders
	return lo, hi
}

// --- memory-bounded stream ingress ------------------------------------

// streamShard consumes an edge stream batch by batch for a stateless
// strategy and accumulates the vertex-cut bookkeeping — per-partition edge
// counts and the replica/in/out bit-matrices — without ever materializing
// the edge list. Peak memory is O(|V|·P/8) bits plus one batch, the
// memory-bounded ingress regime of the paper's real systems. It is one
// ShardedStreamBuilder worker's private state and is single-goroutine;
// batches may arrive in any order (results are order-independent because
// the strategy is stateless).
type streamShard struct {
	strategy string
	numParts int
	seed     uint64
	asg      Assigner
	hinter   MasterHinter // nil when the strategy emits no hints

	n        int // vertices seen so far (max id + 1)
	q        *metrics.Quality
	replicas *bitMatrix
	inParts  *bitMatrix
	outParts *bitMatrix
}

func newStreamShard(s StatelessStrategy, numParts int, seed uint64) (*streamShard, error) {
	asg, err := s.NewAssigner(numParts, seed)
	if err != nil {
		return nil, fmt.Errorf("partition: strategy %s: %w", s.Name(), err)
	}
	b := &streamShard{
		strategy: s.Name(),
		numParts: numParts,
		seed:     seed,
		asg:      asg,
		q:        metrics.NewQuality(numParts),
		replicas: newBitMatrix(0, numParts),
		inParts:  newBitMatrix(0, numParts),
		outParts: newBitMatrix(0, numParts),
	}
	b.hinter, _ = asg.(MasterHinter)
	return b, nil
}

// feed assigns and accounts one batch of edges. The batch's slice is not
// retained.
func (b *streamShard) feed(batch EdgeBatch) error {
	for i, e := range batch.Edges {
		if v := int(max(e.Src, e.Dst)) + 1; v > b.n {
			b.n = v
			b.replicas.ensureRows(v)
			b.inParts.ensureRows(v)
			b.outParts.ensureRows(v)
		}
		p := b.asg.Assign(e)
		if p < 0 || int(p) >= b.numParts {
			return fmt.Errorf("partition: strategy %s placed edge %d on partition %d (numParts=%d)",
				b.strategy, batch.Offset+int64(i), p, b.numParts)
		}
		b.q.AddEdge(int(p))
		b.replicas.set(int(e.Src), int(p))
		b.replicas.set(int(e.Dst), int(p))
		b.outParts.set(int(e.Src), int(p))
		b.inParts.set(int(e.Dst), int(p))
	}
	return nil
}

// merge folds another shard's accumulated state into b. Every piece of
// shard state is a commutative monoid under merge (counter sums, bit-set
// unions, max vertex id), which is what makes sharded ingress exact:
// masters and metrics are derived only at summary time, from the merged
// state.
func (b *streamShard) merge(o *streamShard) {
	if o.n > b.n {
		b.n = o.n
	}
	b.q.Merge(o.q)
	b.replicas.or(o.replicas)
	b.inParts.or(o.inParts)
	b.outParts.or(o.outParts)
}

// summary derives masters and the quality metrics from the accumulated
// state: the same EdgeCount, Masters and ReplicationFactor that
// ParallelPartition computes for the same edges. It is called once.
func (b *streamShard) summary() *StreamSummary {
	sum := &StreamSummary{
		Strategy:    b.strategy,
		NumParts:    b.numParts,
		NumVertices: b.n,
		NumEdges:    b.q.NumEdges(),
		EdgeCount:   b.q.EdgeCounts(),
		Masters:     make([]int32, b.n),
		replicas:    b.replicas,
		q:           b.q,
	}
	for v := 0; v < b.n; v++ {
		reps := b.replicas.count(v)
		if reps == 0 {
			sum.Masters[v] = -1
			continue
		}
		b.q.VertexPlaced()
		b.replicas.forEach(v, b.q.AddReplica)
		hint := int32(-1)
		if b.hinter != nil {
			hint = b.hinter.MasterHint(graph.VertexID(v))
		}
		sum.Masters[v] = chooseMaster(b.replicas, v, reps, hint, b.numParts, b.seed)
	}
	return sum
}

// StreamSummary is the outcome of a streamed ingress: everything Assignment
// offers that does not require the materialized edge list.
type StreamSummary struct {
	Strategy    string
	NumParts    int
	NumVertices int
	NumEdges    int64
	EdgeCount   []int64
	Masters     []int32 // -1 for isolated vertices

	replicas *bitMatrix
	q        *metrics.Quality
}

// Replicas returns the number of partitions vertex v is replicated on.
func (s *StreamSummary) Replicas(v graph.VertexID) int { return s.replicas.count(int(v)) }

// ReplicasOnPart returns the number of vertex images partition p holds
// (precomputed at Finish; O(1)).
func (s *StreamSummary) ReplicasOnPart(p int) int64 { return s.q.ReplicasOnPart(p) }

// TotalReplicas returns the total number of vertex images.
func (s *StreamSummary) TotalReplicas() int64 { return s.q.TotalReplicas() }

// ReplicationFactor returns the average images per non-isolated vertex.
func (s *StreamSummary) ReplicationFactor() float64 { return s.q.ReplicationFactor() }

// EdgeBalance returns max/mean edges per partition (≥1; 1.0 is balanced).
func (s *StreamSummary) EdgeBalance() float64 { return s.q.EdgeBalance() }

// chooseMaster picks vertex v's master: the hint when it holds a replica,
// else a deterministic hash over the replica list — the exact rule used by
// the materialized Assignment path.
func chooseMaster(replicas *bitMatrix, v, reps int, hint int32, numParts int, seed uint64) int32 {
	if hint >= 0 && int(hint) < numParts && replicas.has(v, int(hint)) {
		return hint
	}
	pick := int(hashing.Vertex(seed^0xa57e, graph.VertexID(v)) % uint64(reps))
	idx := 0
	chosen := int32(-1)
	replicas.forEach(v, func(col int) {
		if idx == pick {
			chosen = int32(col)
		}
		idx++
	})
	return chosen
}
