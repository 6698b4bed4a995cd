// Package graphx simulates GraphX's execution model (ch. 7): a Pregel-style
// iteration loop over Spark RDDs, with many edge partitions per machine,
// routing-table vertex-value shipping, a partitioning phase that is separate
// from ingress, per-iteration task-scheduling overhead, and an executor
// memory model reproducing the three memory-pressure cases of Fig 9.4.
package graphx

import (
	"fmt"
	"math"
	"math/bits"

	"graphpart/internal/cluster"
	"graphpart/internal/engine"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

// Config describes one GraphX job.
type Config struct {
	Cluster cluster.Config
	// ExecutorMemBytes is the per-executor (per-machine) memory budget —
	// the "executor-memory" parameter swept in Fig 9.4. 0 means ample
	// memory (no pressure).
	ExecutorMemBytes float64
	// Iterations caps the Pregel loop, as the paper's GraphX experiments
	// do (10 in ch. 7, 25 in ch. 9). 0 means run to convergence.
	Iterations int
	// Workers bounds the goroutines executing each iteration phase; ≤0
	// means GOMAXPROCS. As in engine.Run, the shard structure is
	// worker-count independent, so Stats and Values are byte-identical
	// for every value.
	Workers int
}

// Stats describes a GraphX run. GraphX separates the partitioning phase
// from ingress and computation (§7.3), so partitioning time is reported on
// its own.
type Stats struct {
	App      string
	Strategy string

	// PartitionSeconds is the separate partitioning phase.
	PartitionSeconds float64
	// ComputeSeconds is the Pregel loop (excludes partitioning).
	ComputeSeconds float64
	// IterSeconds/CumulativeSeconds give per-iteration timing; cumulative
	// includes PartitionSeconds, matching the y-axis of Figs 9.1/9.2
	// ("total time taken at the end of each iteration").
	IterSeconds       []float64
	CumulativeSeconds []float64
	Iterations        int
	Converged         bool

	// Memory-pressure outcome (Fig 9.4).
	Failed      bool    // case 1: cannot fit on the whole cluster
	FitAttempts int     // case 2: redistribution attempts before fitting
	GCOverhead  float64 // multiplier ≥1 applied to compute work

	AvgNetInGB float64
	PeakMemGB  float64
	CPUUtil    []float64
}

// Outcome bundles values and stats.
type Outcome[V any] struct {
	Values []V
	Stats  Stats
}

// Run executes prog under the GraphX model.
func Run[V, A any](prog engine.Program[V, A], a *partition.Assignment, cfg Config, model cluster.CostModel) (*Outcome[V], error) {
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cluster.NumParts() != a.NumParts {
		return nil, fmt.Errorf("graphx: assignment has %d partitions, cluster provides %d", a.NumParts, cfg.Cluster.NumParts())
	}
	g := a.G
	g.EnsureCSR()
	n := g.NumVertices()
	machines := cfg.Cluster.Machines

	stats := Stats{App: prog.Name(), Strategy: a.Strategy}

	// ---- Memory model (Fig 9.4) ----
	// Working set per machine if partitions were spread evenly.
	spreadMem := make([]float64, machines)
	var totalMem float64
	for p := 0; p < a.NumParts; p++ {
		m := cfg.Cluster.MachineOf(p)
		w := float64(a.ReplicasOnPart(p))*float64(model.ReplicaBytes) +
			float64(a.EdgeCount[p])*float64(model.EdgeMemBytes)
		spreadMem[m] += w
		totalMem += w
	}
	gcMult := 1.0
	if cfg.ExecutorMemBytes > 0 {
		avail := cfg.ExecutorMemBytes - model.ExecutorBase
		if avail <= 0 {
			avail = 1
		}
		// Case 1: the graph cannot fit on the entire cluster.
		if totalMem > avail*float64(machines) {
			stats.Failed = true
			return &Outcome[V]{Stats: stats}, nil
		}
		// Spark first tries to co-locate the graph on 2 executors, then
		// doubles the executor count after each out-of-memory failure
		// (§9.2.4). Count the failed attempts; each costs RedistributeSec.
		need := int(math.Ceil(totalMem / avail))
		if need < 2 {
			need = 2
		}
		tryExec := 2
		for tryExec < need && tryExec < machines {
			stats.FitAttempts++
			tryExec *= 2
		}
		// GC overhead grows as the per-machine working set approaches the
		// executor budget.
		pressure := totalMem / float64(machines) / avail
		if pressure > model.GCKnee {
			headroom := 1 - pressure
			if headroom < 0.02 {
				headroom = 0.02
			}
			gcMult = 1 + model.GCSlope*(pressure-model.GCKnee)/headroom
		}
	}
	stats.GCOverhead = gcMult

	// ---- Partitioning phase (separate from ingress, §7.3) ----
	stats.PartitionSeconds = partitionPhaseSeconds(a, cfg.Cluster, model)

	// ---- Pregel loop ----
	// Iteration phases run on sharded workers exactly as in engine.Run:
	// contiguous shards of the active/changed lists, per-shard integer
	// event counts summed and priced once per iteration, per-worker
	// activation bitmaps merged by OR — byte-identical results for every
	// worker count.
	vals := make([]V, n)
	newVals := make([]V, n)
	active := make([]graph.VertexID, 0, n)
	nextActive := engine.NewBitset(n)
	for v := 0; v < n; v++ {
		vals[v] = prog.Init(g, graph.VertexID(v))
		if prog.InitiallyActive(g, graph.VertexID(v)) {
			active = append(active, graph.VertexID(v))
		}
	}

	run := cluster.NewRun(cfg.Cluster, model)
	gatherDir := prog.GatherDir()
	scatterDir := prog.ScatterDir()
	prices := engine.Prices{
		GatherEdgeNs: model.RDDEdgeNs,
		ApplyNs:      model.ApplyVertexNs,
		AccBytes:     float64(prog.AccBytes() + model.MsgOverheadBytes),
		ValBytes:     float64(prog.ValueBytes() + model.MsgOverheadBytes),
	}
	gatherIn, gatherOut := engine.DirMasks(gatherDir)
	machineOf := cfg.Cluster.MachineTable()

	work := make([]float64, a.NumParts)
	inBytes := make([]float64, a.NumParts)
	outBytes := make([]float64, a.NumParts)

	sh := engine.NewSharder(cfg.Workers, a.NumParts, n)
	changed := make([]graph.VertexID, 0, n)

	cum := stats.PartitionSeconds
	for iter := 0; cfg.Iterations == 0 || iter < cfg.Iterations; iter++ {
		if len(active) == 0 {
			stats.Converged = true
			break
		}
		na := len(active)
		changed = sh.Meter(na, changed[:0],
			func(lo, hi int, ms *engine.Meters, ch []graph.VertexID) []graph.VertexID {
				gathered, applies, accOut, accIn := ms.GatherEdges, ms.Applies, ms.AccOut, ms.AccIn
				for _, v := range active[lo:hi] {
					var acc A
					hasAcc := false
					gather := func(src, dst graph.VertexID, eid int32) {
						c := prog.Gather(g, src, dst, vals[src], vals[dst], v)
						if hasAcc {
							acc = prog.Sum(acc, c)
						} else {
							acc, hasAcc = c, true
						}
						gathered[a.EdgeParts[eid]]++
					}
					if gatherDir == engine.DirIn || gatherDir == engine.DirBoth {
						nbrs := g.InNeighbors(v)
						eids := g.InEdgeIDs(v)
						for i := range nbrs {
							gather(nbrs[i], v, eids[i])
						}
					}
					if gatherDir == engine.DirOut || gatherDir == engine.DirBoth {
						nbrs := g.OutNeighbors(v)
						eids := g.OutEdgeIDs(v)
						for i := range nbrs {
							gather(v, nbrs[i], eids[i])
						}
					}
					master := a.Master(v)
					if master < 0 {
						// Isolated vertex: evolves locally, no shuffle traffic.
						nv, ch2 := prog.Apply(g, v, vals[v], acc, hasAcc)
						newVals[v] = nv
						if ch2 {
							ch = append(ch, v)
						}
						continue
					}
					// aggregateMessages shuffle: each edge partition on another
					// machine holding gather-direction edges of v sends one
					// combined message to v's vertex partition (master).
					mm := machineOf[master]
					ins, outs := a.InEdgeBits(v), a.OutEdgeBits(v)
					var sent int64
					for wi := range ins {
						for w := ins[wi]&gatherIn | outs[wi]&gatherOut; w != 0; w &= w - 1 {
							if p := wi<<6 | bits.TrailingZeros64(w); machineOf[p] != mm {
								accOut[p]++
								sent++
							}
						}
					}
					accIn[master] += sent

					nv, ch2 := prog.Apply(g, v, vals[v], acc, hasAcc)
					newVals[v] = nv
					applies[master]++
					if ch2 {
						ch = append(ch, v)
					}
				}
				return ch
			})

		sh.Do(na, func(lo, hi int) {
			for _, v := range active[lo:hi] {
				vals[v] = newVals[v]
			}
		})

		// Vertex-value shipping: changed vertices broadcast their new
		// value to every edge partition holding their edges (GraphX's
		// routing tables) — the replication-factor-proportional cost.
		sh.Scatter(len(changed), nextActive,
			func(lo, hi int, ms *engine.Meters, nb engine.Bitset) {
				applies, valOut, valIn := ms.Applies, ms.ValOut, ms.ValIn
				for _, v := range changed[lo:hi] {
					if master := a.Master(v); master >= 0 { // isolated vertices ship nothing
						mm := machineOf[master]
						var sent int64
						for wi, w := range a.ReplicaBits(v) {
							for ; w != 0; w &= w - 1 {
								p := wi<<6 | bits.TrailingZeros64(w)
								if p == master {
									continue
								}
								applies[p]++
								if machineOf[p] != mm {
									valIn[p]++
									sent++
								}
							}
						}
						valOut[master] += sent
					}
					if scatterDir == engine.DirOut || scatterDir == engine.DirBoth {
						for _, u := range g.OutNeighbors(v) {
							nb.Set(int(u))
						}
					}
					if scatterDir == engine.DirIn || scatterDir == engine.DirBoth {
						for _, u := range g.InNeighbors(v) {
							nb.Set(int(u))
						}
					}
				}
			})

		sh.Price(prices, work, inBytes, outBytes)
		for p := range work {
			// Spark schedules one task per partition every iteration,
			// whether or not it has active work — GraphX's constant
			// per-iteration floor. GC overhead inflates all CPU work.
			work[p] = (model.TaskOverheadNs + work[p]) * gcMult
		}
		before := run.SimSeconds
		run.StepPartitioned(work, inBytes, outBytes)
		d := run.SimSeconds - before
		stats.IterSeconds = append(stats.IterSeconds, d)
		cum += d
		stats.CumulativeSeconds = append(stats.CumulativeSeconds, cum)
		stats.Iterations++

		active = active[:0]
		nextActive.ForEach(func(i int) {
			active = append(active, graph.VertexID(i))
		})
	}
	if cfg.Iterations > 0 && len(active) == 0 {
		stats.Converged = true
	}

	// Case-2 redistribution attempts delay the start of computation.
	redisSec := float64(stats.FitAttempts) * model.RedistributeSec
	stats.ComputeSeconds = run.SimSeconds + redisSec
	for i := range stats.CumulativeSeconds {
		stats.CumulativeSeconds[i] += redisSec
	}
	stats.AvgNetInGB = run.AvgNetInGB()
	for m := 0; m < machines; m++ {
		run.SetPeakMem(m, spreadMem[m]*gcMultMemFactor(gcMult))
	}
	stats.PeakMemGB = run.MaxPeakMemGB()
	stats.CPUUtil = run.CPUUtilization()
	return &Outcome[V]{Values: vals, Stats: stats}, nil
}

// gcMultMemFactor nudges peak memory up under GC pressure (fragmentation,
// survivor copies).
func gcMultMemFactor(gcMult float64) float64 { return 1 + 0.1*(gcMult-1) }

// partitionPhaseSeconds models GraphX's standalone partitioning phase: a
// partitionBy over the edge RDD (assignment + shuffle), without the
// edge-list load (that is ingress) — which is why all of GraphX's
// hash-based strategies partition at similar speed (§7.4) while the ported
// greedy strategies are slower (ch. 9).
func partitionPhaseSeconds(a *partition.Assignment, cfg cluster.Config, model cluster.CostModel) float64 {
	edges := float64(a.G.NumEdges())
	perMachine := edges / float64(cfg.Machines)
	assignNs := model.HashAssignNs * float64(a.Passes)
	if a.Passes >= 3 || isGreedy(a.Strategy) {
		assignNs += model.HeuristicAssignNs * float64(a.NumParts)
	}
	assignSec := perMachine * assignNs / 1e9
	shuffleSec := perMachine * float64(model.EdgeWireBytes) / model.BandwidthBytesPerSec
	// Rebuilding the routing tables costs per replica, but GraphX routing
	// tables are plain id lists — far cheaper than PowerGraph's mirror
	// structures — so partitioning speed is dominated by the shuffle and
	// looks similar across the hash strategies (§7.4).
	const routingTableFactor = 0.1
	var reps float64
	for p := 0; p < a.NumParts; p++ {
		reps += float64(a.ReplicasOnPart(p))
	}
	finalizeSec := reps / float64(cfg.Machines) * model.FinalizeReplicaNs * routingTableFactor / 1e9
	return assignSec + shuffleSec + finalizeSec
}

func isGreedy(name string) bool {
	switch name {
	case "Oblivious", "HDRF", "H-Ginger":
		return true
	}
	return false
}
