package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"

	"graphpart/internal/app"
	"graphpart/internal/cluster"
	"graphpart/internal/engine"
	"graphpart/internal/gen"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

// pipelineParts is the partition count of both pipelines: the paper's
// 9-machine local cluster with one partition per machine.
const pipelineParts = 9

// pipeline is one file → engine-result workload: load the file, partition
// it, build the adjacency index, run one engine job.
type pipeline struct {
	path     string
	edges    int
	strategy string
	seed     uint64
	// runApp runs the workload's engine job on a at the given worker count.
	runApp func(a *partition.Assignment, workers int) (*engine.Outcome[float64], error)
}

// pipeOut is what one pass produces, reduced to the values the output
// check compares.
type pipeOut struct {
	rf, balance    float64
	masters        uint64 // FNV-1a of every vertex's master partition
	values         uint64 // FNV-1a of every vertex's engine value bits
	supersteps     int
	edgesProcessed int64
}

func runPipelinePowerLaw(b *bench) error {
	p := &pipeline{
		path:     filepath.Join(b.dir, "powerlaw.csrg"),
		strategy: "HDRF",
		seed:     b.cfg.seed,
		runApp: func(a *partition.Assignment, workers int) (*engine.Outcome[float64], error) {
			return engine.Run[float64, float64](engine.ModePowerGraph, app.PageRank{}, a,
				cluster.Local9, cluster.DefaultModel(), engine.Options{FixedIterations: 10, Workers: workers})
		},
	}
	err := b.timeSetup(cheapSetupReps, func(int) error {
		g := gen.PrefAttach("pipeline-powerlaw", b.cfg.size.plVertices, 10, b.cfg.seed)
		p.edges = g.NumEdges()
		return graph.SaveCSRVersion(g, p.path, 2)
	})
	if err != nil {
		return err
	}
	return p.run(b)
}

func runPipelineRoad(b *bench) error {
	var source graph.VertexID
	p := &pipeline{
		path:     filepath.Join(b.dir, "road.txt"),
		strategy: "Grid",
		seed:     b.cfg.seed,
		runApp: func(a *partition.Assignment, workers int) (*engine.Outcome[float64], error) {
			return engine.Run[float64, float64](engine.ModePowerGraph, app.SSSP{Source: source}, a,
				cluster.Local9, cluster.DefaultModel(), engine.Options{Workers: workers})
		},
	}
	err := b.timeSetup(cheapSetupReps, func(int) error {
		side := b.cfg.size.roadSide
		g := gen.RoadNet("pipeline-road", side, side, b.cfg.seed)
		p.edges = g.NumEdges()
		// The lowest connected id sits in the lattice's corner, so SSSP
		// from it crosses the whole diameter: about one superstep per
		// lattice row plus column.
		for v := 0; v < g.NumVertices(); v++ {
			if g.Degree(graph.VertexID(v)) > 0 {
				source = graph.VertexID(v)
				break
			}
		}
		return graph.SaveEdgeList(g, p.path)
	})
	if err != nil {
		return err
	}
	return p.run(b)
}

// pass runs the whole pipeline once, each layer call in its own span.
// partWorkers and engWorkers of 0 leave the layer at its default
// (GOMAXPROCS); the single-thread COST pass sets both to 1.
func (p *pipeline) pass(tr *tracer, partWorkers, engWorkers int) (pipeOut, error) {
	var out pipeOut
	err := tr.root("bench.pipeline_pass", func(c spanCtx) error {
		var g *graph.Graph
		err := tr.child(c, "graph.LoadFile", true, func(spanCtx) (err error) {
			g, err = graph.LoadFile(p.path)
			return err
		})
		if err != nil {
			return err
		}
		strat, err := partition.New(p.strategy, partition.Options{})
		if err != nil {
			return err
		}
		var a *partition.Assignment
		err = tr.child(c, "partition.ParallelPartition", true, func(spanCtx) (err error) {
			a, err = partition.ParallelPartition(g, strat, pipelineParts, p.seed, partWorkers)
			return err
		})
		if err != nil {
			return err
		}
		_ = tr.child(c, "graph.EnsureCSR", true, func(spanCtx) error { // EnsureCSR cannot fail
			g.EnsureCSR()
			return nil
		})
		var res *engine.Outcome[float64]
		err = tr.child(c, "engine.Run", true, func(spanCtx) (err error) {
			res, err = p.runApp(a, engWorkers)
			return err
		})
		if err != nil {
			return err
		}
		out = pipeOut{
			rf: a.ReplicationFactor(), balance: a.EdgeBalance(),
			masters:    hashMasters(g.NumVertices(), a.Master),
			values:     hashFloats(res.Values),
			supersteps: res.Stats.Supersteps, edgesProcessed: res.Stats.EdgesProcessed,
		}
		return nil
	})
	return out, err
}

// run is the measured phase and the output check. Every pass is checked
// against a workers=1 reference pass, made after the measured phase so it
// cannot warm it. In the traced run the reference pass is traced too: it
// is the single-thread COST pass.
func (p *pipeline) run(b *bench) error {
	tr := newTracer()
	var outs []pipeOut
	r, err := b.runPasses(tr, func(t *tracer) error {
		out, err := p.pass(t, 0, 0)
		outs = append(outs, out)
		return err
	})
	if err != nil {
		return err
	}
	var refTracer *tracer
	if b.cfg.trace {
		refTracer = tr
	}
	ref, err := p.pass(refTracer, 1, 1)
	if err != nil {
		return fmt.Errorf("reference pass: %w", err)
	}
	if b.cfg.wrongRef {
		ref.values ^= 1
	}
	for _, o := range outs {
		b.op(o.check(ref))
	}
	if !b.cfg.trace {
		b.reportUntraced(r, int64(p.edges))
		return nil
	}

	med, n, cost, err := b.reportTraced(tr, r)
	if err != nil {
		return err
	}
	load := med(func(lt layerTimes) float64 { return lt.get("graph.LoadFile").total })
	b.set("graph.load_s", load, n)
	b.set("graph.load_edges_per_s", ratio(float64(p.edges), load), n)
	b.set("graph.load_allocs", med(func(lt layerTimes) float64 { return float64(lt.get("graph.LoadFile").allocs) }), n)
	b.set("graph.csr_s", med(func(lt layerTimes) float64 { return lt.get("graph.EnsureCSR").total }), n)
	ingress := med(func(lt layerTimes) float64 { return lt.get("partition.ParallelPartition").total })
	b.set("partition.ingress_s", ingress, n)
	b.set("partition.ingress_allocs", med(func(lt layerTimes) float64 { return float64(lt.get("partition.ParallelPartition").allocs) }), n)
	b.set("partition.ingress_alloc_mb", med(func(lt layerTimes) float64 { return mb(lt.get("partition.ParallelPartition").allocBytes) }), n)

	// Supersteps and edge visits do not depend on the worker count; the
	// output check holds every pass to the reference's.
	steps := float64(ref.supersteps)
	engRun := med(func(lt layerTimes) float64 { return lt.get("engine.Run").total })
	b.set("engine.run_s", engRun, n)
	b.set("engine.supersteps", steps, 0)
	b.set("engine.us_per_superstep", ratio(engRun*1e6, steps), n)
	b.set("engine.allocs_per_superstep", ratio(med(func(lt layerTimes) float64 { return float64(lt.get("engine.Run").allocs) }), steps), n)
	b.set("engine.alloc_mb", med(func(lt layerTimes) float64 { return mb(lt.get("engine.Run").allocBytes) }), n)
	b.set("engine.edges_per_s", ratio(float64(ref.edgesProcessed), engRun), n)

	b.set("partition.ingress_speedup_vs_1w", ratio(cost.get("partition.ParallelPartition").total, ingress), 1)
	b.set("engine.speedup_vs_1w", ratio(cost.get("engine.Run").total, engRun), 1)
	return nil
}

// check compares one pass's outputs with the reference pass's.
func (o pipeOut) check(ref pipeOut) error {
	if o != ref {
		return fmt.Errorf("pass output %+v differs from the workers=1 reference %+v", o, ref)
	}
	return nil
}

// hashMasters hashes every vertex's master partition, in vertex order.
func hashMasters(n int, master func(graph.VertexID) int) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for v := 0; v < n; v++ {
		m := uint32(int32(master(graph.VertexID(v))))
		buf[0], buf[1], buf[2], buf[3] = byte(m), byte(m>>8), byte(m>>16), byte(m>>24)
		h.Write(buf[:]) //nolint:errcheck // hash writes never fail
	}
	return h.Sum64()
}

// hashFloats hashes the exact bits of xs, in order.
func hashFloats(xs []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range xs {
		u := math.Float64bits(x)
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:]) //nolint:errcheck // hash writes never fail
	}
	return h.Sum64()
}
