package engine

// Deterministic work-sharding shared by the GAS executor (Run) and the
// GraphX engine (internal/engine/graphx).
//
// The central invariant: the decomposition of a phase's work list into
// contiguous shards depends only on the *length of the list*, never on the
// number of workers. Shards meter simulated cost as integer event counts
// (edges scanned, applies, messages sent and received, per partition) in
// shard-private buffers; the coordinating goroutine sums the counts and
// prices them once per superstep. Integer sums do not depend on the order
// they are taken in, so Workers only changes which goroutine evaluates a
// shard — Stats and Values are byte-identical for every Workers value, for
// any cost model, which is the reproducibility contract the simulation's
// "metrics are deterministic functions of partitioning quality" claim
// rests on.

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"graphpart/internal/graph"
)

const (
	// minShardItems is the smallest work-list slice worth a shard of its
	// own: below it, merge overhead dominates and the phase runs inline.
	// Small frontiers (the long convergence tail of SSSP on road networks)
	// therefore stay on the calling goroutine automatically.
	minShardItems = 256
	// maxShards caps per-shard scratch memory and merge cost.
	maxShards = 64
)

// ResolveWorkers maps an Options.Workers value to a concrete worker count:
// ≤0 means GOMAXPROCS.
func ResolveWorkers(w int) int {
	if w <= 0 {
		//graphlint:nondet worker-count default only; results are worker-count-independent (TestShardedDeterminism)
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// NumShards returns the number of contiguous shards an n-item work list is
// split into. It is a function of n only — never of the worker count.
func NumShards(n int) int {
	s := n / minShardItems
	if s < 1 {
		return 1
	}
	if s > maxShards {
		return maxShards
	}
	return s
}

// ShardRange returns shard s's half-open item range [lo, hi) of an n-item
// list split into shards contiguous pieces.
func ShardRange(n, shards, s int) (lo, hi int) {
	return n * s / shards, n * (s + 1) / shards
}

// ForEachShard evaluates fn(shard, worker) for every shard in [0, shards)
// using up to workers goroutines. Workers pull shards from a shared counter
// (so a skewed shard cannot serialize the phase behind a static block
// assignment); worker ids are dense in [0, min(workers, shards)). With one
// worker or one shard everything runs inline on the calling goroutine as
// worker 0 — the sequential path is the same code path, not a special case.
func ForEachShard(workers, shards int, fn func(shard, worker int)) {
	if workers > shards {
		workers = shards
	}
	if workers <= 1 {
		for s := 0; s < shards; s++ {
			fn(s, 0)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= shards {
					return
				}
				fn(s, w)
			}
		}(w)
	}
	wg.Wait()
}

// Meters holds integer event counts, one per partition for each kind of
// event whose simulated cost a superstep charges. A shard's Meters point
// into its own cache-line-separated buffer, so the per-edge and per-replica
// increments of concurrent shards never share a cache line; the counts are
// priced only after every shard has been summed (see Sharder.Price).
type Meters struct {
	GatherEdges  []int64 // gather-direction edges scanned
	Applies      []int64 // vertex applies, at masters and at updated mirrors
	ScatterEdges []int64 // scatter-direction edges scanned
	AccOut       []int64 // partial accumulators sent to a remote master
	AccIn        []int64 // partial accumulators received by a master
	ValOut       []int64 // vertex values sent to remote mirrors
	ValIn        []int64 // vertex values received by a mirror
	SigOut       []int64 // activation signals sent to a remote master
	SigIn        []int64 // activation signals received by a master

	all []int64 // every count above: they are consecutive pieces of it
}

// numCounters is the number of per-partition count slices in a Meters.
const numCounters = 9

// cacheLineInt64s is one 64-byte cache line, in int64 counts.
const cacheLineInt64s = 8

// newMeters carves numCounters slices of numParts counts out of buf.
func newMeters(buf []int64, numParts int) Meters {
	all := buf[: numCounters*numParts : numCounters*numParts]
	c := func(k int) []int64 { return all[k*numParts : (k+1)*numParts : (k+1)*numParts] }
	return Meters{
		GatherEdges: c(0), Applies: c(1), ScatterEdges: c(2),
		AccOut: c(3), AccIn: c(4), ValOut: c(5), ValIn: c(6), SigOut: c(7), SigIn: c(8),
		all: all,
	}
}

// reset zeroes every count.
func (m *Meters) reset() { clear(m.all) }

// add adds src's counts into m.
func (m *Meters) add(src *Meters) {
	for i, c := range src.all {
		m.all[i] += c
	}
}

// Prices converts event counts into simulated cost: CPU nanoseconds per
// work event and wire bytes per message.
type Prices struct {
	GatherEdgeNs, ApplyNs, ScatterEdgeNs float64
	AccBytes, ValBytes, SigBytes         float64
}

// Bitset is a fixed-size bit set over a dense vertex-id space. Scatter
// workers each own one, so activation writes need no synchronization; the
// per-worker sets merge by OR, which is commutative and idempotent — the
// merged frontier is identical no matter which worker set which bit.
type Bitset []uint64

// NewBitset returns a zeroed bitset holding n bits.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set sets bit i.
func (b Bitset) Set(i int) { b[i>>6] |= 1 << uint(i&63) }

// Get reports bit i.
func (b Bitset) Get(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// Clear zeroes the whole set.
func (b Bitset) Clear() {
	for i := range b {
		b[i] = 0
	}
}

// MergeClear ORs src into b and zeroes src, in one pass.
func (b Bitset) MergeClear(src Bitset) {
	for i, w := range src {
		if w != 0 {
			b[i] |= w
			src[i] = 0
		}
	}
}

// ForEach calls fn for every set bit in ascending order.
func (b Bitset) ForEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Sharder owns the sharded-phase scratch of one engine run and provides the
// three phase shapes both engines execute supersteps with, plus the pricing
// of what those phases metered. Centralizing the orchestration here — worker
// clamp, shard-private count buffers, count sums, per-worker bitmap
// lazy-init and OR-merge — keeps the GAS and GraphX engines in lockstep on
// the invariants the byte-identical-determinism contract depends on.
type Sharder struct {
	// Workers is the resolved goroutine bound, clamped to the maximum
	// shard count so idle workers are never spawned.
	Workers int

	shards  []Meters // per-shard counts, each in its own cache lines
	total   Meters   // counts summed over the superstep's phases so far
	changed [][]graph.VertexID
	next    []Bitset // per-worker activation bitmaps, allocated on first use
	n       int      // vertices, for bitmap sizing
}

// NewSharder sizes the scratch for a run over n vertices and numParts
// partitions. No phase can use more shards than NumShards(n) (work lists
// are at most n items), so every count buffer is allocated here, once.
func NewSharder(workers, numParts, n int) *Sharder {
	w := ResolveWorkers(workers)
	if maxSh := NumShards(n); w > maxSh {
		w = maxSh
	}
	sh := &Sharder{Workers: w, n: n}
	ns := NumShards(n)
	// Round each shard's counts up to whole cache lines and add one more
	// line, so two shards' counts never share a line whatever the
	// allocation's alignment.
	used := numCounters * numParts
	stride := (used+cacheLineInt64s-1)/cacheLineInt64s*cacheLineInt64s + cacheLineInt64s
	buf := make([]int64, (ns+1)*stride)
	sh.shards = make([]Meters, ns)
	for i := range sh.shards {
		sh.shards[i] = newMeters(buf[i*stride:], numParts)
	}
	sh.total = newMeters(buf[ns*stride:], numParts)
	sh.changed = make([][]graph.VertexID, ns)
	sh.next = make([]Bitset, w)
	return sh
}

// Do runs body over contiguous shards of an nItems-long work list. For
// phases with no meters (e.g. committing newVals), where shards only write
// disjoint indexes.
func (sh *Sharder) Do(nItems int, body func(lo, hi int)) {
	ns := NumShards(nItems)
	ForEachShard(sh.Workers, ns, func(s, _ int) {
		lo, hi := ShardRange(nItems, ns, s)
		body(lo, hi)
	})
}

// Meter runs body over contiguous shards of an nItems-long work list, each
// shard with zeroed private Meters and a reusable change-list buffer (body
// returns the buffer it appended to). The shards' counts are summed into
// the superstep's totals and the per-shard change lists concatenate onto
// dst in shard order, so for a contiguous decomposition the result is in
// work-list order, exactly as a sequential loop would produce it. Returns
// the appended dst.
func (sh *Sharder) Meter(nItems int, dst []graph.VertexID,
	body func(lo, hi int, ms *Meters, ch []graph.VertexID) []graph.VertexID) []graph.VertexID {
	ns := NumShards(nItems)
	ForEachShard(sh.Workers, ns, func(s, _ int) {
		ms := &sh.shards[s]
		ms.reset()
		lo, hi := ShardRange(nItems, ns, s)
		sh.changed[s] = body(lo, hi, ms, sh.changed[s][:0])
	})
	for s := 0; s < ns; s++ {
		sh.total.add(&sh.shards[s])
		dst = append(dst, sh.changed[s]...)
	}
	return dst
}

// Scatter runs body over contiguous shards of an nItems-long change list,
// each shard with zeroed private Meters and its worker's activation bitmap.
// frontier is cleared, then the per-worker bitmaps OR-merge into it (and
// are cleared for the next superstep). The shards' counts are summed into
// the superstep's totals.
func (sh *Sharder) Scatter(nItems int, frontier Bitset, body func(lo, hi int, ms *Meters, nb Bitset)) {
	frontier.Clear()
	ns := NumShards(nItems)
	ForEachShard(sh.Workers, ns, func(s, w int) {
		ms := &sh.shards[s]
		ms.reset()
		nb := sh.next[w]
		if nb == nil {
			nb = NewBitset(sh.n)
			sh.next[w] = nb
		}
		lo, hi := ShardRange(nItems, ns, s)
		body(lo, hi, ms, nb)
	})
	for s := 0; s < ns; s++ {
		sh.total.add(&sh.shards[s])
	}
	for _, nb := range sh.next {
		if nb != nil {
			frontier.MergeClear(nb)
		}
	}
}

// Price charges the counts metered since the last Price to the superstep:
// it sets each partition's CPU work (ns) and inbound/outbound traffic
// (bytes) at the given prices in work, in and out, then zeroes the counts.
// It returns the edges scanned (gather plus scatter) and the bytes of
// accumulator and value messages sent — the superstep's dynamic message
// memory. Every count is an exact integer, so the priced superstep does not
// depend on how its work was sharded.
func (sh *Sharder) Price(pr Prices, work, in, out []float64) (edges int64, msgBytes float64) {
	t := &sh.total
	var accs, vals int64
	for p := range work {
		edges += t.GatherEdges[p] + t.ScatterEdges[p]
		accs += t.AccOut[p]
		vals += t.ValOut[p]
		work[p] = float64(t.GatherEdges[p])*pr.GatherEdgeNs + float64(t.Applies[p])*pr.ApplyNs +
			float64(t.ScatterEdges[p])*pr.ScatterEdgeNs
		in[p] = float64(t.AccIn[p])*pr.AccBytes + float64(t.ValIn[p])*pr.ValBytes +
			float64(t.SigIn[p])*pr.SigBytes
		out[p] = float64(t.AccOut[p])*pr.AccBytes + float64(t.ValOut[p])*pr.ValBytes +
			float64(t.SigOut[p])*pr.SigBytes
	}
	t.reset()
	return edges, float64(accs)*pr.AccBytes + float64(vals)*pr.ValBytes
}
