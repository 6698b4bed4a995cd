// Package engine defines the vertex-program abstraction shared by the three
// simulated computation engines (PowerGraph-style GAS, PowerLyra's hybrid
// engine, and the GraphX/Pregel engine) and implements the synchronous GAS
// executor the first two build on.
//
// The executor runs the *real* algorithm — vertex values are computed
// exactly, applications run to convergence — while every byte of
// master/mirror synchronization, every edge scanned, and every barrier is
// charged to the simulated cluster (internal/cluster) according to the
// placement decisions of a partition.Assignment. Performance metrics are
// therefore deterministic functions of partitioning quality, which is
// exactly the relationship the paper measures.
package engine

import (
	"fmt"
	"math/bits"

	"graphpart/internal/cluster"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

// Direction selects which incident edges a stage of a vertex program reads
// or writes (§3.1, §6.1).
type Direction int

// Directions.
const (
	DirNone Direction = iota
	DirIn
	DirOut
	DirBoth
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case DirNone:
		return "none"
	case DirIn:
		return "in"
	case DirOut:
		return "out"
	case DirBoth:
		return "both"
	}
	return "?"
}

// Program is a GAS vertex program (§3.1) over vertex values V and gather
// accumulators A. Implementations must be pure: the engines own all state.
type Program[V, A any] interface {
	// Name returns the application name as used in the paper's figures.
	Name() string
	// GatherDir selects the edges gathered over.
	GatherDir() Direction
	// ScatterDir selects the edges along which changed vertices activate
	// neighbors.
	ScatterDir() Direction
	// Init returns v's initial value.
	Init(g *graph.Graph, v graph.VertexID) V
	// InitiallyActive reports whether v is active in the first superstep.
	InitiallyActive(g *graph.Graph, v graph.VertexID) bool
	// Gather returns the contribution of one gather-direction edge (src,
	// dst) to target's accumulator. target is either src or dst.
	Gather(g *graph.Graph, src, dst graph.VertexID, srcVal, dstVal V, target graph.VertexID) A
	// Sum combines two accumulator values (must be commutative and
	// associative, §3.1).
	Sum(a, b A) A
	// Apply computes v's new value from the aggregated accumulator.
	// hasAcc is false when v had no gather-direction edges. changed
	// triggers scatter activation.
	Apply(g *graph.Graph, v graph.VertexID, old V, acc A, hasAcc bool) (newVal V, changed bool)
	// AccBytes is the wire size of one accumulator message.
	AccBytes() int
	// ValueBytes is the wire size of one vertex-value sync message.
	ValueBytes() int
}

// Reactivator is an optional Program extension for bulk-iterative
// applications: vertices for which StayActive returns true remain in the
// frontier every superstep, and the run converges when a superstep produces
// no changed vertices (Pregel's halt-voting). K-core implements this — each
// peeling round re-examines every remaining vertex (§3.3.3).
type Reactivator[V any] interface {
	StayActive(g *graph.Graph, v graph.VertexID, val V) bool
}

// DirMasks returns all-ones word masks for the edge directions d covers
// (in, out) and zero for the others, for filtering partition bit rows.
func DirMasks(d Direction) (in, out uint64) {
	if d == DirIn || d == DirBoth {
		in = ^uint64(0)
	}
	if d == DirOut || d == DirBoth {
		out = ^uint64(0)
	}
	return in, out
}

// Natural reports whether p is a "natural application" in PowerLyra's sense
// (§6.1): it gathers along exactly one direction and scatters along the
// other.
func Natural[V, A any](p Program[V, A]) bool {
	g, s := p.GatherDir(), p.ScatterDir()
	return (g == DirIn && s == DirOut) || (g == DirOut && s == DirIn)
}

// Mode selects the engine semantics.
type Mode int

// Engine modes.
const (
	// ModePowerGraph: every mirror participates in gather and receives the
	// applied value — the sync engine of §5.1.2.
	ModePowerGraph Mode = iota
	// ModePowerLyra: differentiated processing (§6.1). Low-degree vertices
	// gather only from partitions actually holding gather-direction edges
	// (zero network when the partitioner colocated them with the master)
	// and push values only to partitions holding scatter-direction edges.
	// High-degree vertices behave as in PowerGraph.
	ModePowerLyra
)

// Options tunes one engine run.
type Options struct {
	// MaxSupersteps caps execution; 0 means run to convergence.
	MaxSupersteps int
	// FixedIterations, when >0, forces every vertex active for exactly
	// this many supersteps (the paper's "PageRank(10)" configuration).
	FixedIterations int
	// HighDegreeThreshold is PowerLyra's high/low-degree cutoff; 0 means
	// partition.DefaultHybridThreshold. Only used by ModePowerLyra.
	HighDegreeThreshold int
	// Workers bounds the goroutines executing each superstep phase. ≤0
	// means GOMAXPROCS; 1 runs every shard inline on the calling
	// goroutine. The shard decomposition is worker-count independent (see
	// shard.go), so Stats and Values are byte-identical for every value.
	Workers int
}

// Stats are the §4.3 metrics of one compute phase.
type Stats struct {
	App        string
	Strategy   string
	Mode       Mode
	Supersteps int
	Converged  bool

	// ComputeSeconds is the simulated computation time (always excluding
	// ingress, as the paper defines it).
	ComputeSeconds float64
	// AvgNetInGB is mean per-machine inbound traffic (Figs 5.3/6.1/8.3).
	AvgNetInGB float64
	// PeakMemGB is max per-machine peak memory (Figs 5.5/6.2), covering
	// the compute phase only; callers combine with ingress memory.
	PeakMemGB float64
	// CPUUtil is each machine's busy fraction (Fig 8.4).
	CPUUtil []float64
	// EdgesProcessed counts gather+scatter edge visits (work measure).
	EdgesProcessed int64
	// SuperstepSeconds records the simulated duration of each superstep.
	SuperstepSeconds []float64
}

// Outcome carries the computed vertex values along with run statistics.
type Outcome[V any] struct {
	Values []V
	Stats  Stats
}

// Run executes prog over the partitioned graph on the simulated cluster.
//
// Each superstep phase (gather+apply, value commit, scatter) executes on up
// to opts.Workers goroutines over contiguous frontier shards. The shard
// structure depends only on the frontier length, and the phases meter
// simulated cost as integer event counts that are summed and priced once per
// superstep, so every Workers value — including the sequential Workers=1
// case, which is the same code path run inline — produces byte-identical
// Stats and Values.
func Run[V, A any](mode Mode, prog Program[V, A], a *partition.Assignment, cfg cluster.Config, model cluster.CostModel, opts Options) (*Outcome[V], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.NumParts() != a.NumParts {
		return nil, fmt.Errorf("engine: assignment has %d partitions but cluster has %d", a.NumParts, cfg.NumParts())
	}
	g := a.G
	g.EnsureCSR()
	n := g.NumVertices()

	threshold := opts.HighDegreeThreshold
	if threshold <= 0 {
		threshold = partition.DefaultHybridThreshold
	}

	vals := make([]V, n)
	newVals := make([]V, n)
	nextActive := NewBitset(n)
	frontier := make([]graph.VertexID, 0, n)
	for v := 0; v < n; v++ {
		vals[v] = prog.Init(g, graph.VertexID(v))
		if prog.InitiallyActive(g, graph.VertexID(v)) {
			frontier = append(frontier, graph.VertexID(v))
		}
	}

	run := cluster.NewRun(cfg, model)
	staticMem := staticMemPerMachine(a, cfg, model)
	var peakDyn float64

	work := make([]float64, a.NumParts)
	inBytes := make([]float64, a.NumParts)
	outBytes := make([]float64, a.NumParts)

	sh := NewSharder(opts.Workers, a.NumParts, n)
	changedList := make([]graph.VertexID, 0, n)

	gatherDir := prog.GatherDir()
	scatterDir := prog.ScatterDir()
	prices := Prices{
		GatherEdgeNs:  model.GatherEdgeNs,
		ApplyNs:       model.ApplyVertexNs,
		ScatterEdgeNs: model.ScatterEdgeNs,
		AccBytes:      float64(prog.AccBytes() + model.MsgOverheadBytes),
		ValBytes:      float64(prog.ValueBytes() + model.MsgOverheadBytes),
		SigBytes:      float64(model.SignalBytes),
	}
	// Replica walks iterate a vertex's replica bit row. A PowerLyra
	// low-degree vertex gathers only from partitions holding
	// gather-direction edges and syncs only partitions holding
	// scatter-direction edges (DirBoth and DirNone sync every replica):
	// these masks select the edge rows that filter the walk.
	gatherIn, gatherOut := DirMasks(gatherDir)
	syncFiltered := scatterDir == DirIn || scatterDir == DirOut
	syncIn, syncOut := DirMasks(scatterDir)
	machineOf := cfg.MachineTable()
	edgeParts, masters := a.EdgeParts, a.Masters

	reactivator, _ := any(prog).(Reactivator[V])

	// PowerLyra's differentiated processing keys on the degree in the
	// *gather* direction: hybrid-cut partitions by in-degree, and an
	// in-gathering vertex with few in-edges is "low-degree" no matter how
	// many out-edges it has (§6.1, §6.2.1).
	gatherDegree := func(v graph.VertexID) int {
		switch gatherDir {
		case DirIn:
			return g.InDegree(v)
		case DirOut:
			return g.OutDegree(v)
		default:
			return g.Degree(v)
		}
	}
	isLowDegree := func(v graph.VertexID) bool { return gatherDegree(v) <= threshold }

	stats := Stats{App: prog.Name(), Strategy: a.Strategy, Mode: mode}
	maxSteps := opts.MaxSupersteps
	if opts.FixedIterations > 0 {
		maxSteps = opts.FixedIterations
	}

	for step := 0; ; step++ {
		if maxSteps > 0 && step >= maxSteps {
			stats.Converged = len(frontier) == 0
			break
		}
		if opts.FixedIterations > 0 {
			// All vertices are active every iteration — including isolated
			// ones (Master < 0): they carry no replicas and no network, but
			// their value still evolves through Apply, exactly as in the
			// convergence-mode isolated-vertex branch below (e.g.
			// PageRank's (1−d) floor for degree-0 vertices).
			frontier = frontier[:0]
			for v := 0; v < n; v++ {
				frontier = append(frontier, graph.VertexID(v))
			}
		}
		if len(frontier) == 0 {
			stats.Converged = true
			break
		}

		// ---- Gather + Apply ----
		// Embarrassingly parallel over the frontier: each shard reads vals
		// and writes newVals only at its own vertices' indexes, counting
		// into its private meters. The merged change list is in frontier
		// order, exactly as the sequential loop produced it.
		nf := len(frontier)
		changedList = sh.Meter(nf, changedList[:0],
			func(lo, hi int, ms *Meters, ch []graph.VertexID) []graph.VertexID {
				gathered, applies := ms.GatherEdges, ms.Applies
				accOut, accIn, valOut, valIn := ms.AccOut, ms.AccIn, ms.ValOut, ms.ValIn
				for _, v := range frontier[lo:hi] {
					var acc A
					hasAcc := false
					if gatherDir == DirIn || gatherDir == DirBoth {
						nbrs := g.InNeighbors(v)
						eids := g.InEdgeIDs(v)
						for i, u := range nbrs {
							c := prog.Gather(g, u, v, vals[u], vals[v], v)
							if hasAcc {
								acc = prog.Sum(acc, c)
							} else {
								acc, hasAcc = c, true
							}
							gathered[edgeParts[eids[i]]]++
						}
					}
					if gatherDir == DirOut || gatherDir == DirBoth {
						nbrs := g.OutNeighbors(v)
						eids := g.OutEdgeIDs(v)
						for i, u := range nbrs {
							c := prog.Gather(g, v, u, vals[v], vals[u], v)
							if hasAcc {
								acc = prog.Sum(acc, c)
							} else {
								acc, hasAcc = c, true
							}
							gathered[edgeParts[eids[i]]]++
						}
					}

					master := a.Master(v)
					if master < 0 {
						// Isolated vertex: no replicas, no network — but its value
						// still evolves (e.g. PageRank's (1−d) floor, K-core
						// removal of degree-0 vertices).
						nv, changed := prog.Apply(g, v, vals[v], acc, hasAcc)
						newVals[v] = nv
						if changed {
							ch = append(ch, v)
						}
						continue
					}

					// Gather-stage network: partial accumulators flow from mirror
					// partitions on other machines to the master.
					lyraLow := mode == ModePowerLyra && isLowDegree(v)
					mm := machineOf[master]
					reps := a.ReplicaBits(v)
					var ins, outs []uint64
					if lyraLow {
						ins, outs = a.InEdgeBits(v), a.OutEdgeBits(v)
					}
					var sent int64
					for wi, w := range reps {
						if lyraLow {
							w &= ins[wi]&gatherIn | outs[wi]&gatherOut
						}
						for ; w != 0; w &= w - 1 {
							if p := wi<<6 | bits.TrailingZeros64(w); machineOf[p] != mm {
								accOut[p]++
								sent++
							}
						}
					}
					accIn[master] += sent

					// Apply at the master.
					nv, changed := prog.Apply(g, v, vals[v], acc, hasAcc)
					newVals[v] = nv
					applies[master]++
					if changed {
						ch = append(ch, v)
					}

					// Apply-stage network: the master pushes the updated value to
					// mirrors. PowerGraph syncs all mirrors of an active vertex
					// every superstep. PowerLyra processes low-degree vertices
					// GraphLab/Pregel-style (§6.1): their value travels as a
					// message, only when it changed, and only to partitions that
					// need it for scatter — the hybrid engine's synchronization
					// saving for natural applications.
					if lyraLow && !changed {
						continue
					}
					sent = 0
					for wi, w := range reps {
						if lyraLow && syncFiltered {
							w &= ins[wi]&syncIn | outs[wi]&syncOut
						}
						for ; w != 0; w &= w - 1 {
							p := wi<<6 | bits.TrailingZeros64(w)
							if p == master {
								continue
							}
							applies[p]++ // mirror applies the update
							if machineOf[p] != mm {
								valIn[p]++
								sent++
							}
						}
					}
					valOut[master] += sent
				}
				return ch
			})

		// Commit applied values (disjoint indexes; no meters).
		sh.Do(nf, func(lo, hi int) {
			for _, v := range frontier[lo:hi] {
				vals[v] = newVals[v]
			}
		})

		// ---- Scatter: changed vertices activate neighbors ----
		// Counts stay per-shard; activation bits go to per-worker bitmaps
		// merged by OR (commutative and idempotent, so the merged frontier
		// is independent of shard→worker scheduling).
		sh.Scatter(len(changedList), nextActive, func(lo, hi int, ms *Meters, nb Bitset) {
			scattered, sigOut, sigIn := ms.ScatterEdges, ms.SigOut, ms.SigIn
			for _, v := range changedList[lo:hi] {
				if scatterDir == DirOut || scatterDir == DirBoth {
					eids := g.OutEdgeIDs(v)
					for i, u := range g.OutNeighbors(v) {
						p := edgeParts[eids[i]]
						scattered[p]++
						if um := masters[u]; um >= 0 && machineOf[p] != machineOf[um] {
							sigOut[p]++
							sigIn[um]++
						}
						nb.Set(int(u))
					}
				}
				if scatterDir == DirIn || scatterDir == DirBoth {
					eids := g.InEdgeIDs(v)
					for i, u := range g.InNeighbors(v) {
						p := edgeParts[eids[i]]
						scattered[p]++
						if um := masters[u]; um >= 0 && machineOf[p] != machineOf[um] {
							sigOut[p]++
							sigIn[um]++
						}
						nb.Set(int(u))
					}
				}
			}
		})

		edges, dynBytes := sh.Price(prices, work, inBytes, outBytes)
		stats.EdgesProcessed += edges
		before := run.SimSeconds
		run.StepPartitioned(work, inBytes, outBytes)
		stats.SuperstepSeconds = append(stats.SuperstepSeconds, run.SimSeconds-before)
		if dynBytes/float64(cfg.Machines) > peakDyn {
			peakDyn = dynBytes / float64(cfg.Machines)
		}

		// Programs with Pregel-style voting (Reactivator) keep vertices
		// active until the round produces no changes: bulk-iterative
		// applications like K-core re-examine the whole remaining
		// subgraph each round (§3.3.3). Shard boundaries fall on bitset
		// words, so concurrent Set calls never touch the same word.
		if reactivator != nil {
			if len(changedList) == 0 {
				stats.Supersteps++
				stats.Converged = true
				break
			}
			words := len(nextActive)
			ws := NumShards(words)
			ForEachShard(sh.Workers, ws, func(s, _ int) {
				wlo, whi := ShardRange(words, ws, s)
				vhi := whi * 64
				if vhi > n {
					vhi = n
				}
				for v := wlo * 64; v < vhi; v++ {
					if !nextActive.Get(v) && reactivator.StayActive(g, graph.VertexID(v), vals[v]) {
						nextActive.Set(v)
					}
				}
			})
		}

		// Next frontier.
		frontier = frontier[:0]
		nextActive.ForEach(func(i int) {
			frontier = append(frontier, graph.VertexID(i))
		})
		stats.Supersteps++
	}

	for m := 0; m < cfg.Machines; m++ {
		run.SetPeakMem(m, staticMem[m]+peakDyn)
	}
	stats.ComputeSeconds = run.SimSeconds
	stats.AvgNetInGB = run.AvgNetInGB()
	stats.PeakMemGB = run.MaxPeakMemGB()
	stats.CPUUtil = run.CPUUtilization()
	return &Outcome[V]{Values: vals, Stats: stats}, nil
}

// staticMemPerMachine computes each machine's steady compute-phase memory.
func staticMemPerMachine(a *partition.Assignment, cfg cluster.Config, model cluster.CostModel) []float64 {
	mem := make([]float64, cfg.Machines)
	for p := 0; p < a.NumParts; p++ {
		m := cfg.MachineOf(p)
		mem[m] += float64(a.ReplicasOnPart(p))*float64(model.ReplicaBytes) +
			float64(a.EdgeCount[p])*float64(model.EdgeMemBytes)
	}
	return mem
}
