package main

import (
	"fmt"
	"os"
	"path/filepath"

	"graphpart/internal/gen"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

// streamParts and streamStrategy shape stream-ingest: 2D hashing at 16
// parts, the configuration of the ing.scale experiment.
const (
	streamParts    = 16
	streamStrategy = "2D"
)

// streamOut is one pass's StreamSummary, reduced to what the output check
// compares.
type streamOut struct {
	edges       int64
	rf, balance float64
	masters     uint64 // FNV-1a of every vertex's master partition
}

func runStreamIngest(b *bench) error {
	path := filepath.Join(b.dir, "web.csrg")
	var edges int64
	err := b.timeSetup(setupReps, func(int) error {
		var err error
		edges, err = writeWebGraph(path, b.cfg.size, b.cfg.seed)
		return err
	})
	if err != nil {
		return err
	}
	strat, err := partition.New(streamStrategy, partition.Options{})
	if err != nil {
		return err
	}

	// pass streams the file into a sharded builder: read and decode in
	// StreamFile, each batch handed to Feed, the shards merged by Finish.
	pass := func(tr *tracer, workers int) (streamOut, error) {
		var out streamOut
		err := tr.root("bench.stream_pass", func(c spanCtx) error {
			sb, err := partition.NewShardedStreamBuilder(strat, streamParts, workers, b.cfg.seed)
			if err != nil {
				return err
			}
			err = tr.child(c, "graph.StreamFile", true, func(c spanCtx) error {
				_, _, err := graph.StreamFile(path, graph.DefaultBatchSize, func(off int64, es []graph.Edge) error {
					return tr.child(c, "partition.ShardedStreamBuilder.Feed", false, func(spanCtx) error {
						return sb.Feed(partition.EdgeBatch{Offset: off, Edges: es})
					})
				})
				return err
			})
			if err != nil {
				sb.Finish() //nolint:errcheck // stops the workers; the read error is the one to report
				return err
			}
			var sum *partition.StreamSummary
			err = tr.child(c, "partition.ShardedStreamBuilder.Finish", true, func(spanCtx) (err error) {
				sum, err = sb.Finish()
				return err
			})
			if err != nil {
				return err
			}
			out = streamOut{
				edges: sum.NumEdges, rf: sum.ReplicationFactor(), balance: sum.EdgeBalance(),
				masters: hashMasters(len(sum.Masters), func(v graph.VertexID) int { return int(sum.Masters[v]) }),
			}
			return nil
		})
		return out, err
	}

	tr := newTracer()
	var outs []streamOut
	r, err := b.runPasses(tr, func(t *tracer) error {
		out, err := pass(t, 0)
		outs = append(outs, out)
		return err
	})
	if err != nil {
		return err
	}

	// The reference is a single-worker builder over the same file; in the
	// traced run it is also the COST pass.
	var refTracer *tracer
	if b.cfg.trace {
		refTracer = tr
	}
	ref, err := pass(refTracer, 1)
	if err != nil {
		return fmt.Errorf("reference pass: %w", err)
	}
	if ref.edges != edges {
		return fmt.Errorf("reference pass streamed %d edges, the file holds %d", ref.edges, edges)
	}
	if b.cfg.wrongRef {
		ref.masters ^= 1
	}
	for _, o := range outs {
		if o != ref {
			b.op(fmt.Errorf("stream summary %+v differs from the 1-worker reference %+v", o, ref))
			continue
		}
		b.op(nil)
	}
	if !b.cfg.trace {
		b.reportUntraced(r, edges)
		return nil
	}

	med, n, cost, err := b.reportTraced(tr, r)
	if err != nil {
		return err
	}
	b.set("graph.stream_read_s", med(func(lt layerTimes) float64 { return lt.get("graph.StreamFile").self }), n)
	b.set("partition.stream_feed_wait_s", med(func(lt layerTimes) float64 { return lt.get("partition.ShardedStreamBuilder.Feed").total }), n)
	b.set("partition.stream_finish_s", med(func(lt layerTimes) float64 { return lt.get("partition.ShardedStreamBuilder.Finish").total }), n)
	b.set("partition.stream_allocs", med(func(lt layerTimes) float64 {
		return float64(lt.get("graph.StreamFile").allocs + lt.get("partition.ShardedStreamBuilder.Finish").allocs)
	}), n)
	passS := med(func(lt layerTimes) float64 { return lt.get("bench.stream_pass").total })
	b.set("partition.stream_speedup_vs_1w", ratio(cost.get("bench.stream_pass").total, passS), 1)
	return nil
}

// writeWebGraph writes the stream-ingest input as .csrg v2 without ever
// holding all of it: the graph is generated in chunks of
// size.webChunk pages, each a gen.WebGraph with its own seed, shifted to
// its own id range and appended through a streaming CSRWriter. Set-up
// memory stays at one chunk.
func writeWebGraph(path string, size sizes, seed uint64) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w, err := graph.NewCSRWriterVersion(f, "stream-ingest", 2)
	if err != nil {
		return 0, err
	}
	var edges int64
	for base := 0; base < size.webPages; base += size.webChunk {
		g := gen.WebGraph("stream-ingest", gen.WebGraphConfig{
			N: size.webChunk, Alpha: 1.62, MaxOutD: size.webChunk / 10,
			Locality: 0.86, Window: 64, Seed: seed*1_000_003 + uint64(base),
		})
		for i := range g.Edges {
			g.Edges[i].Src += graph.VertexID(base)
			g.Edges[i].Dst += graph.VertexID(base)
		}
		if err := w.Append(g.Edges); err != nil {
			return 0, err
		}
		edges += int64(len(g.Edges))
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return edges, f.Close()
}
