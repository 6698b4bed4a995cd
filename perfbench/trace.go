package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records one span around each call the benchmark makes into a
// layer of the program. Spans are kept in memory and written out once, when
// the run ends. A nil *tracer records nothing: the untraced run pays a nil
// check per call and never reads a memory or GC counter.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// span is one timed layer call. Spans of one pass or one request share
// Trace, the ID of their root span; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Allocs and AllocBytes are heap allocations made while the span was
	// open (by any goroutine), read only for spans opened with counted.
	Allocs     uint64 `json:"allocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// spanCtx names the span a new span is opened under.
type spanCtx struct{ trace, parent int64 }

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// root runs fn inside a new root span.
func (t *tracer) root(name string, fn func(spanCtx) error) error {
	return t.child(spanCtx{}, name, false, fn)
}

// child runs fn inside a span under c. With counted, the span also records
// the heap allocations made while it was open; runtime.ReadMemStats stops
// the world, so counted spans are kept to a few per pass.
func (t *tracer) child(c spanCtx, name string, counted bool, fn func(spanCtx) error) error {
	if t == nil {
		return fn(spanCtx{})
	}
	s := span{ID: t.next.Add(1), Parent: c.parent, Trace: c.trace, Name: name}
	if s.Trace == 0 {
		s.Trace = s.ID
	}
	var m0 runtime.MemStats
	if counted {
		runtime.ReadMemStats(&m0)
	}
	s.Start = int64(time.Since(t.epoch))
	err := fn(spanCtx{trace: s.Trace, parent: s.ID})
	s.End = int64(time.Since(t.epoch))
	if counted {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		s.Allocs, s.AllocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return err
}

// layerTimes sums one trace's spans by name: total duration, self time
// (duration minus the time its child spans cover) and counted allocations.
type layerTimes map[string]*layerTime

type layerTime struct {
	calls       int
	total, self float64
	allocs      uint64
	allocBytes  uint64
	// negSelf marks a span whose children cover more than its own
	// duration: a child outlived it or two children overlapped.
	negSelf bool
}

// byTrace groups the recorded spans into per-trace layer sums, keyed by
// trace ID, together with each trace's root span.
func (t *tracer) byTrace() (map[int64]layerTimes, map[int64]span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := map[int64]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.seconds()
		}
	}
	out := map[int64]layerTimes{}
	roots := map[int64]span{}
	for _, s := range t.spans {
		lt := out[s.Trace]
		if lt == nil {
			lt = layerTimes{}
			out[s.Trace] = lt
		}
		e := lt[s.Name]
		if e == nil {
			e = &layerTime{}
			lt[s.Name] = e
		}
		e.calls++
		e.total += s.seconds()
		self := s.seconds() - covered[s.ID]
		e.self += self
		e.negSelf = e.negSelf || self < -1e-9
		e.allocs += s.Allocs
		e.allocBytes += s.AllocBytes
		if s.Parent == 0 {
			roots[s.Trace] = s
		}
	}
	return out, roots
}

// get returns the named entry, or a zero entry when the trace has none.
func (lt layerTimes) get(name string) layerTime {
	if e := lt[name]; e != nil {
		return *e
	}
	return layerTime{}
}

// selfSum is the sum of every span's self time in the trace.
func (lt layerTimes) selfSum() float64 {
	var sum float64
	for _, e := range lt {
		sum += e.self
	}
	return sum
}

// write stores every span, ordered by ID, as a JSON array at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gcCounters reads the collector's cycle count and total stop-the-world
// pause time from runtime/metrics.
type gcCounters struct {
	cycles uint64
	pauseS float64
}

func readGC() gcCounters {
	samples := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(samples)
	var c gcCounters
	if samples[0].Value.Kind() == metrics.KindUint64 {
		c.cycles = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64Histogram {
		h := samples[1].Value.Float64Histogram()
		for i, n := range h.Counts {
			// Buckets[i] and Buckets[i+1] bound bucket i; the outer bounds
			// may be infinite, so take the finite one.
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			mid := (lo + hi) / 2
			switch {
			case math.IsInf(lo, -1):
				mid = hi
			case math.IsInf(hi, 1):
				mid = lo
			}
			c.pauseS += float64(n) * mid
		}
	}
	return c
}

func (c gcCounters) sub(o gcCounters) gcCounters {
	return gcCounters{cycles: c.cycles - o.cycles, pauseS: c.pauseS - o.pauseS}
}

func addGC(a, b gcCounters) gcCounters {
	return gcCounters{cycles: a.cycles + b.cycles, pauseS: a.pauseS + b.pauseS}
}

// sortedIDs returns the trace IDs of roots in the order the roots opened.
func sortedIDs(roots map[int64]span) []int64 {
	ids := make([]int64, 0, len(roots))
	for id := range roots {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// checkSelfTimes counts one operation per root span. No span's children
// may cover more than the span itself. Where wall holds the pass's
// wall-clock, timed around it from outside the tracer, the self times of
// all its spans must add up to it, within 1% plus 1 ms.
func checkSelfTimes(b *bench, perTrace map[int64]layerTimes, roots map[int64]span, wall map[int64]float64) {
	for _, id := range sortedIDs(roots) {
		lt, name := perTrace[id], roots[id].Name
		var err error
		for span, e := range lt {
			if e.negSelf {
				err = fmt.Errorf("trace %d (%s): the children of a %s span cover more than the span", id, name, span)
			}
		}
		if w, ok := wall[id]; ok && err == nil {
			if got := lt.selfSum(); math.Abs(got-w) > 0.01*w+1e-3 {
				err = fmt.Errorf("trace %d (%s): span self times sum to %.6fs, the pass took %.6fs", id, name, got, w)
			}
		}
		b.op(err)
	}
}

// lastTrace is the trace ID of the span that closed last: after a root
// span's function returns, its own trace.
func (t *tracer) lastTrace() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[len(t.spans)-1].Trace
}

// mb converts bytes to MiB.
func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// layerSelf sums the self time of every span of one layer: the spans whose
// name starts with layer and a dot.
func (lt layerTimes) layerSelf(layer string) float64 {
	var sum float64
	for name, e := range lt {
		if strings.HasPrefix(name, layer+".") {
			sum += e.self
		}
	}
	return sum
}
