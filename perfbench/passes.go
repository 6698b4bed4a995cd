package main

import (
	"fmt"
	"runtime"
	"time"
)

// passRun is what the measured phase of a pass-based workload (the
// pipelines and stream-ingest) records.
type passRun struct {
	plain, traced []float64 // wall-clock seconds of untraced and traced passes
	held          []float64 // heldMB after each untraced pass
	gc            gcCounters
	// wall is each traced pass's wall-clock, keyed by its trace ID.
	wall map[int64]float64
}

// runPasses is the measured phase of a pass-based workload: pass runs
// one pass at the default worker count, under t (nil for an untraced
// pass). The untraced run times passes until the time is up. The traced
// run alternates untraced and traced passes over the same time, so the
// two medians give the tracing overhead.
func (b *bench) runPasses(tr *tracer, pass func(t *tracer) error) (passRun, error) {
	r := passRun{wall: map[int64]float64{}}
	err := b.measure(func() error {
		start := time.Now()
		// At least one untraced and one traced pass, however short the run.
		for i := 0; i < 2 || time.Since(start) < b.cfg.seconds; i++ {
			runtime.GC() // every pass starts from the same heap
			var t *tracer
			var g0 gcCounters
			if b.cfg.trace && i%2 == 1 {
				t, g0 = tr, readGC()
			}
			passStart := time.Now()
			if err := pass(t); err != nil {
				return err
			}
			d := time.Since(passStart).Seconds()
			if t != nil {
				r.gc = addGC(r.gc, readGC().sub(g0))
				r.traced = append(r.traced, d)
				r.wall[tr.lastTrace()] = d
			} else {
				r.plain = append(r.plain, d)
				r.held = append(r.held, heldMB())
			}
		}
		return nil
	})
	return r, err
}

// reportUntraced sets the end-to-end metrics of a pass over an input of
// edges edges.
func (b *bench) reportUntraced(r passRun, edges int64) {
	m := median(r.plain)
	b.set("op_p50_ms", m*1e3, len(r.plain))
	b.set("work_per_s", float64(edges)/m, len(r.plain))
	b.set("held_mem_mb", median(r.held), len(r.held))
}

// reportTraced sets the per-layer metrics every pass-based workload shares
// and checks each traced pass's self times. The last root span must be the
// single-thread COST pass; it is returned as cost. med reads one value per
// traced pass at the default worker count and returns their median; n is
// how many there are.
func (b *bench) reportTraced(tr *tracer, r passRun) (med func(func(layerTimes) float64) float64, n int, cost layerTimes, err error) {
	b.tracer = tr
	perTrace, roots := tr.byTrace()
	all := sortedIDs(roots)
	if len(all) < 2 {
		return nil, 0, nil, fmt.Errorf("traced run recorded %d passes, want ≥2", len(all))
	}
	checkSelfTimes(b, perTrace, roots, r.wall)
	ids := all[:len(all)-1]
	med = func(f func(layerTimes) float64) float64 {
		xs := make([]float64, len(ids))
		for i, id := range ids {
			xs[i] = f(perTrace[id])
		}
		return median(xs)
	}
	n = len(ids)
	for _, layer := range []string{"bench", "graph", "partition", "engine"} {
		b.set(layer+".self_s", med(func(lt layerTimes) float64 { return lt.layerSelf(layer) }), n)
	}
	b.set("runtime.gc_cycles", float64(r.gc.cycles)/float64(len(r.traced)), len(r.traced))
	b.set("runtime.gc_pause_s", r.gc.pauseS/float64(len(r.traced)), len(r.traced))
	b.set("trace.overhead_frac", median(r.traced)/median(r.plain)-1, len(r.traced))
	return med, n, perTrace[all[len(all)-1]], nil
}
