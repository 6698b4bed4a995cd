package partition

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"graphpart/internal/graph"
)

// ShardedStreamBuilder is the streamed ingress path: it consumes an edge
// stream batch by batch for a stateless strategy and derives the vertex-cut
// summary without ever materializing the edge list. Work fans out over
// worker goroutines, each owning a private shard (its own assigner,
// counters and bit-matrices — no shared mutable state, no locks on the hot
// path); Feed copies each batch into a pooled buffer and dispatches it to
// whichever worker is free. Because the strategy is stateless and every
// per-edge update commutes (counter addition, bit-set union), the merged
// result is identical for every worker count, regardless of how batches
// interleave across workers. One worker is the sequential case.
//
// Feed is intended for a single producer (the file reader); the concurrency
// lives behind it. Memory is O(workers · |V|·P/8) bits plus the in-flight
// batch copies.
type ShardedStreamBuilder struct {
	shards []*streamShard
	jobs   chan shardJob
	wg     sync.WaitGroup
	err    atomic.Pointer[error] // first assignment error any worker met
	pool   sync.Pool
	done   bool
	sum    *StreamSummary
}

type shardJob struct {
	offset int64
	buf    *[]graph.Edge
}

// NewShardedStreamBuilder prepares a stream ingress with the given worker
// count (≤0 means GOMAXPROCS). Only stateless strategies can stream:
// batches interleave arbitrarily across workers, which is sound only when
// per-edge placement is order-independent. Strategies carrying per-loader
// state (StreamingStrategy) or requiring multiple passes (MultiPassStrategy)
// are rejected with an error naming the capability and the reason.
func NewShardedStreamBuilder(strat Strategy, numParts, workers int, seed uint64) (*ShardedStreamBuilder, error) {
	var s StatelessStrategy
	switch c := strat.(type) {
	case StatelessStrategy:
		s = c
	case StreamingStrategy:
		return nil, fmt.Errorf("partition: strategy %s is a StreamingStrategy (its loaders keep ordered per-vertex placement state over the whole stream); stream ingress requires a StatelessStrategy", c.Name())
	case MultiPassStrategy:
		_, _, why := c.MultiPass()
		return nil, fmt.Errorf("partition: strategy %s is a MultiPassStrategy (%s); stream ingress requires a StatelessStrategy", c.Name(), why)
	default:
		return nil, noCapability(strat)
	}
	if numParts < 1 {
		return nil, fmt.Errorf("partition: numParts must be ≥1, got %d", numParts)
	}
	if workers <= 0 {
		//graphlint:nondet worker-count default only; placement is worker-count-independent (sharded_test.go)
		workers = runtime.GOMAXPROCS(0)
	}
	sb := &ShardedStreamBuilder{
		shards: make([]*streamShard, workers),
		jobs:   make(chan shardJob, 2*workers),
	}
	sb.pool.New = func() any {
		s := make([]graph.Edge, 0, graph.DefaultBatchSize)
		return &s
	}
	for i := range sb.shards {
		b, err := newStreamShard(s, numParts, seed)
		if err != nil {
			return nil, err
		}
		sb.shards[i] = b
	}
	for _, b := range sb.shards {
		sb.wg.Add(1)
		go func(b *streamShard) {
			defer sb.wg.Done()
			for job := range sb.jobs {
				if sb.err.Load() == nil {
					if err := b.feed(EdgeBatch{Offset: job.offset, Edges: *job.buf}); err != nil {
						first := err // declared here so only a failure allocates
						sb.err.CompareAndSwap(nil, &first)
					}
				}
				*job.buf = (*job.buf)[:0]
				sb.pool.Put(job.buf)
			}
		}(b)
	}
	return sb, nil
}

// Feed copies one batch into a pooled buffer and hands it to a worker. The
// caller's slice is not retained; in steady state the copy reuses pooled
// memory, so the batch→Feed→release cycle allocates nothing. Once any
// worker has failed, Feed returns that error.
func (sb *ShardedStreamBuilder) Feed(batch EdgeBatch) error {
	if sb.done {
		return fmt.Errorf("%w (sharded)", ErrFeedAfterFinish)
	}
	if err := sb.err.Load(); err != nil {
		return *err
	}
	bufp := sb.pool.Get().(*[]graph.Edge)
	*bufp = append((*bufp)[:0], batch.Edges...)
	sb.jobs <- shardJob{offset: batch.Offset, buf: bufp}
	return nil
}

// Finish drains the workers, merges their private state and derives the
// summary, which does not depend on the worker count. An assignment error
// from any worker surfaces here (and on the Feed that follows it). Finish
// is idempotent; after the first call the builder accepts no more edges.
func (sb *ShardedStreamBuilder) Finish() (*StreamSummary, error) {
	if !sb.done {
		sb.done = true
		close(sb.jobs)
		sb.wg.Wait()
	}
	if err := sb.err.Load(); err != nil {
		return nil, *err
	}
	if sb.sum == nil {
		root := sb.shards[0]
		for _, o := range sb.shards[1:] {
			root.merge(o)
		}
		sb.sum = root.summary()
	}
	return sb.sum, nil
}
