package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"graphpart/internal/datasets"
	"graphpart/internal/gen"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
	"graphpart/internal/service"
)

// service-mix shape: a closed loop of mixClients keep-alive clients, each
// sending lookupsPerChurn assignment lookups per churn POST against
// mixParts-way partitionings.
const (
	mixClients      = 2
	lookupsPerChurn = 9
	mixParts        = 16
	churnStrategy   = "HDRF"
	churnDelFrac    = 0.25
)

// memCheckpoint is the number of accepted churn batches, across clients,
// at which service-mix reads held_mem_mb. The clients' streams grow with
// every batch, so memory read at the end of a closed loop would grow with
// throughput; read at a fixed amount of work it does not. At the speed
// measured on the development machine the checkpoint falls about 5 s
// into a 20 s run.
const memCheckpoint = 10_000

// mix is one service-mix run: the server, the warmed keys, and the
// clients with their traces.
type mix struct {
	b        *bench
	srv      *mixServer
	keys     []mixKey
	vertices map[string]int // vertex count per dataset
	clients  []*mixClient
	churned  atomic.Int64  // churn batches accepted so far, all clients
	held     atomic.Uint64 // heldMB's bits at memCheckpoint; 0 before
}

// mixKey is one warmed (dataset, strategy) assignment.
type mixKey struct{ dataset, strategy string }

// lookupRec is one assignment lookup's answer, kept for the output check.
type lookupRec struct {
	key              int
	vertex           uint32
	master, replicas int
}

// churnBatch is one churn POST's edges.
type churnBatch struct{ adds, dels []graph.Edge }

// mixClient is one closed-loop client's trace and what it observed.
type mixClient struct {
	id      int
	stream  string // the client's churn stream
	trace   []churnBatch
	sent    int  // churn batches the server accepted, in order
	stopped bool // a batch failed, so the client stopped churning
	// src rotated by shift, seed and batch generate the trace; stretches
	// counts its parts.
	src       []graph.Edge
	shift     int
	seed      uint64
	batch     int
	stretches int
	lookups   []lookupRec
	lookMs    []float64
	churnMs   []float64
	ok        int // requests that completed with a 2xx and parsed
	// lastLive and lastRF are the stream as the last accepted churn reported it.
	lastLive int64
	lastRF   float64
}

// mixServer is the in-process partitiond instance on a loopback listener.
type mixServer struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	served chan error
	client *http.Client
}

func startServer(seed uint64) (*mixServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &mixServer{
		srv:    service.New(service.Config{Seed: seed, DefaultParts: mixParts}),
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: mixClients, MaxConnsPerHost: mixClients,
		}},
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and the service down and waits for Serve to
// return.
func (s *mixServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// do issues one request and decodes a 2xx JSON answer into dst.
func (s *mixServer) do(method, path string, body []byte, dst any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, dst)
}

// assignmentAnswer and churnAnswer are the fields of the service's
// responses the check reads.
type assignmentAnswer struct {
	Vertex *struct {
		Master   int `json:"master"`
		Replicas int `json:"replicas"`
	} `json:"vertex"`
}

type churnAnswer struct {
	LiveEdges         int64   `json:"liveEdges"`
	ReplicationFactor float64 `json:"replicationFactor"`
}

func lookupPath(k mixKey, v uint32) string {
	return "/v1/assignment/" + k.dataset + "/" + k.strategy + "?parts=" + strconv.Itoa(mixParts) + "&vertex=" + strconv.FormatUint(uint64(v), 10)
}

func runServiceMix(b *bench) error {
	// Datasets resolve through the files registered below and never
	// through an on-disk cache.
	datasets.SetCacheDir("")
	// The two pipeline inputs, registered once. The scratch directory's
	// name keeps the dataset names unique across runs in one process, as
	// in the package's test. The datasets layer loads each file once per
	// process, so only the first set-up repetition pays for the loads;
	// every repetition rewrites the files and partitions them afresh.
	run := filepath.Base(b.dir)
	plName, rdName := "powerlaw-"+run, "road-"+run
	paths := map[string]string{
		plName: filepath.Join(b.dir, plName+graph.CSRExt),
		rdName: filepath.Join(b.dir, rdName+".txt"),
	}
	if err := datasets.RegisterFile(plName, paths[plName], graph.PowerLaw); err != nil {
		return err
	}
	if err := datasets.RegisterFile(rdName, paths[rdName], graph.LowDegree); err != nil {
		return err
	}
	keys := []mixKey{{plName, "HDRF"}, {plName, "2D"}, {rdName, "Grid"}}
	var (
		srv      *mixServer
		vertices map[string]int
		clients  []*mixClient
	)
	err := b.timeSetup(setupReps, func(int) error {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		pl := gen.PrefAttach("powerlaw", b.cfg.size.plVertices, 10, b.cfg.seed)
		rd := gen.RoadNet("road", b.cfg.size.roadSide, b.cfg.size.roadSide, b.cfg.seed)
		vertices = map[string]int{plName: pl.NumVertices(), rdName: rd.NumVertices()}
		if err := graph.SaveCSRVersion(pl, paths[plName], 2); err != nil {
			return err
		}
		if err := graph.SaveEdgeList(rd, paths[rdName]); err != nil {
			return err
		}

		var err error
		clients, err = churnTraces(b.cfg, pl.Edges)
		if err != nil {
			return err
		}
		if srv, err = startServer(b.cfg.seed); err != nil {
			return err
		}
		// Warm every key through the service, so its singleflight builds
		// happen here and not in the measured loop.
		for _, k := range keys {
			var a assignmentAnswer
			if err := srv.do(http.MethodGet, lookupPath(k, 0), nil, &a); err != nil {
				return fmt.Errorf("warming %v: %w", k, err)
			}
		}
		return nil
	})
	if err != nil {
		if srv != nil {
			srv.stop() //nolint:errcheck // the set-up error is the one to report
		}
		return err
	}
	m := &mix{b: b, srv: srv, keys: keys, vertices: vertices, clients: clients}
	runErr := m.measure()
	if err := srv.stop(); runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return runErr
	}
	return m.check(paths)
}

// churnTraces gives each client its own churn trace over the power-law
// input's edges: its own rotation of them and its own deletion seeds. The
// first stretch is built here, in set-up; at the current speed it lasts
// well past the run.
func churnTraces(cfg config, src []graph.Edge) ([]*mixClient, error) {
	clients := make([]*mixClient, mixClients)
	for c := range clients {
		mc := &mixClient{
			id: c, stream: "client-" + strconv.Itoa(c),
			src: src, shift: c * len(src) / mixClients,
			seed:  cfg.seed*7919 + uint64(c)*104729,
			batch: cfg.size.churnBatchAdds,
		}
		if err := mc.extend(); err != nil {
			return nil, err
		}
		clients[c] = mc
	}
	return clients, nil
}

// extend appends one more stretch to the client's trace: a gen.ChurnTrace
// over its source edges, one POST per window of batch additions with the
// quarter as many deletions before them. A client that sends its whole
// trace extends it inside the measured loop rather than stop churning;
// each stretch only deletes edges it added, so the stream stays valid.
func (mc *mixClient) extend() error {
	mc.stretches++
	edges := make([]graph.Edge, 0, len(mc.src))
	edges = append(append(edges, mc.src[mc.shift:]...), mc.src[:mc.shift]...)
	_, err := gen.ChurnTrace(edges, gen.ChurnConfig{
		Windows: len(edges) / mc.batch, DelFrac: churnDelFrac, Seed: mc.seed + uint64(mc.stretches),
	}, func(w gen.ChurnWindow) error {
		mc.trace = append(mc.trace, churnBatch{adds: gen.Edges(w.Adds), dels: gen.Edges(w.Dels)})
		return nil
	})
	return err
}

// body encodes the POST /v1/churn request for one batch of stream.
func (cb churnBatch) body(stream string) ([]byte, error) {
	return json.Marshal(map[string]any{
		"stream": stream, "strategy": churnStrategy, "parts": mixParts,
		"adds": pairs(cb.adds), "dels": pairs(cb.dels),
	})
}

func pairs(es []graph.Edge) [][2]uint32 {
	out := make([][2]uint32, len(es))
	for i, e := range es {
		out[i] = [2]uint32{e.Src, e.Dst}
	}
	return out
}

// loop is one client's closed loop until the deadline: nine lookups of
// random warmed keys and vertices, then the next churn batch of its trace.
func (mc *mixClient) loop(m *mix, tr *tracer, rng *rand.Rand, deadline time.Time) {
	b, srv, keys, vertices := m.b, m.srv, m.keys, m.vertices
	for i := 0; time.Now().Before(deadline); i++ {
		if i%(lookupsPerChurn+1) == lookupsPerChurn {
			if mc.stopped {
				continue
			}
			if mc.sent == len(mc.trace) {
				if err := mc.extend(); err != nil {
					b.op(fmt.Errorf("client %d: extending the churn trace: %w", mc.id, err))
					mc.stopped = true
					continue
				}
			}
			var ans churnAnswer
			start := time.Now()
			err := tr.root("service.churn_roundtrip", func(spanCtx) error {
				body, err := mc.trace[mc.sent].body(mc.stream)
				if err != nil {
					return err
				}
				return srv.do(http.MethodPost, "/v1/churn", body, &ans)
			})
			ms := float64(time.Since(start)) / 1e6
			b.op(err)
			if err != nil {
				// The stream and the trace may have diverged; stop churning
				// rather than count every later batch as a failure too.
				mc.stopped = true
				continue
			}
			mc.sent++
			if m.churned.Add(1) == memCheckpoint {
				m.held.Store(math.Float64bits(heldMB()))
			}
			mc.ok++
			mc.churnMs = append(mc.churnMs, ms)
			mc.lastLive, mc.lastRF = ans.LiveEdges, ans.ReplicationFactor
			continue
		}
		k := rng.Intn(len(keys))
		v := uint32(rng.Intn(vertices[keys[k].dataset]))
		var ans assignmentAnswer
		start := time.Now()
		err := tr.root("service.lookup_roundtrip", func(spanCtx) error {
			return srv.do(http.MethodGet, lookupPath(keys[k], v), nil, &ans)
		})
		ms := float64(time.Since(start)) / 1e6
		if err == nil && ans.Vertex == nil {
			err = fmt.Errorf("lookup of vertex %d answered without a vertex", v)
		}
		if err != nil {
			b.op(err)
			continue
		}
		// Counted as an operation by the output check, once compared.
		mc.ok++
		mc.lookMs = append(mc.lookMs, ms)
		mc.lookups = append(mc.lookups, lookupRec{key: k, vertex: v, master: ans.Vertex.Master, replicas: ans.Vertex.Replicas})
	}
}

// closedLoop runs every client for d and returns the elapsed wall-clock.
func (m *mix) closedLoop(tr *tracer, d time.Duration, round int) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for _, mc := range m.clients {
		rng := rand.New(rand.NewSource(int64(m.b.cfg.seed)*31 + int64(mc.id)*7 + int64(round)))
		wg.Add(1)
		go func(mc *mixClient) {
			defer wg.Done()
			mc.loop(m, tr, rng, deadline)
		}(mc)
	}
	wg.Wait()
	return time.Since(start)
}

// counts of the clients' observations, so a traced round can be told
// apart from the untraced one before it.
type mixMark struct{ look, churn, ok int }

func mark(clients []*mixClient) []mixMark {
	out := make([]mixMark, len(clients))
	for i, mc := range clients {
		out[i] = mixMark{len(mc.lookMs), len(mc.churnMs), mc.ok}
	}
	return out
}

// since gathers lookup and churn latencies recorded after m, and the
// number of completed requests.
func since(clients []*mixClient, m []mixMark) (look, churn []float64, ok int) {
	for i, mc := range clients {
		look = append(look, mc.lookMs[m[i].look:]...)
		churn = append(churn, mc.churnMs[m[i].churn:]...)
		ok += mc.ok - m[i].ok
	}
	return look, churn, ok
}

// measure is the measured phase. The untraced run is one closed
// loop for the whole time. The traced run splits it: an untraced half,
// then a traced half (their lookup medians give the tracing overhead),
// then direct Handler calls with no socket, and the service's own
// counters.
func (m *mix) measure() error {
	b, srv, keys, vertices, clients := m.b, m.srv, m.keys, m.vertices, m.clients
	if !b.cfg.trace {
		var elapsed time.Duration
		err := b.measure(func() error {
			elapsed = m.closedLoop(nil, b.cfg.seconds, 0)
			return nil
		})
		if err != nil {
			return err
		}
		look, _, ok := since(clients, make([]mixMark, len(clients)))
		b.set("op_p50_ms", median(look), len(look))
		b.set("work_per_s", float64(ok)/elapsed.Seconds(), ok)
		held := math.Float64frombits(m.held.Load())
		if held == 0 { // the run ended before the checkpoint
			held = heldMB()
		}
		b.set("held_mem_mb", held, 0)
		checkBuilds(b, srv, len(keys))
		return nil
	}

	tr := newTracer()
	var plainLook, plainChurn, tracedLook []float64
	var gc gcCounters
	var tracedOK int
	err := b.measure(func() error {
		half := b.cfg.seconds / 2
		m.closedLoop(nil, half, 0)
		plainLook, plainChurn, _ = since(clients, make([]mixMark, len(clients)))
		before := mark(clients)
		g0 := readGC()
		m.closedLoop(tr, half, 1)
		gc = readGC().sub(g0)
		tracedLook, _, tracedOK = since(clients, before)
		return nil
	})
	if err != nil {
		return err
	}

	// Direct calls into Server.Handler, no socket: lookups of the same
	// keys, and a churn replay of client 0's trace into a stream of its
	// own so the clients' streams are left as they were.
	h := srv.srv.Handler()
	rng := rand.New(rand.NewSource(int64(b.cfg.seed)))
	direct := func(name string, req *http.Request) error {
		return tr.root(name, func(spanCtx) error {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code/100 != 2 {
				return fmt.Errorf("%s: status %d: %s", name, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
			}
			return nil
		})
	}
	for i := 0; i < 2000; i++ {
		k := rng.Intn(len(keys))
		v := uint32(rng.Intn(vertices[keys[k].dataset]))
		b.op(direct("service.Handler.lookup", httptest.NewRequest(http.MethodGet, lookupPath(keys[k], v), nil)))
	}
	for i, cb := range clients[0].trace {
		if i == 500 {
			break
		}
		body, err := cb.body("direct")
		if err != nil {
			return err
		}
		b.op(direct("service.Handler.churn", httptest.NewRequest(http.MethodPost, "/v1/churn", bytes.NewReader(body))))
	}

	_ = tr.root("service.MetricsCells", func(spanCtx) error { // cannot fail
		var reqs, clientErrs, serverErrs float64
		for _, c := range srv.srv.MetricsCells() {
			switch {
			case c.Dims.Variant == "" && c.Metric == "requests":
				reqs = c.Value
			case c.Metric == "client-errors":
				clientErrs += c.Value
			case c.Metric == "server-errors":
				serverErrs += c.Value
			}
		}
		b.set("service.requests", reqs, 0)
		b.set("service.client_errors", clientErrs, 0)
		b.set("service.server_errors", serverErrs, 0)
		return nil
	})
	_ = tr.root("service.AssignmentBuilds", func(spanCtx) error { // cannot fail
		b.set("service.assignment_builds", float64(srv.srv.AssignmentBuilds()), 0)
		return nil
	})
	checkBuilds(b, srv, len(keys))

	perTrace, _ := tr.byTrace()
	var handlerLook, handlerChurn []float64
	for _, lt := range perTrace {
		if e := lt.get("service.Handler.lookup"); e.calls > 0 {
			handlerLook = append(handlerLook, e.total*1e6)
		}
		if e := lt.get("service.Handler.churn"); e.calls > 0 {
			handlerChurn = append(handlerChurn, e.total*1e3)
		}
	}
	lookP50us := median(plainLook) * 1e3
	b.set("service.lookup_handler_us", median(handlerLook), len(handlerLook))
	b.set("service.churn_handler_ms", median(handlerChurn), len(handlerChurn))
	b.set("service.http_overhead_us", lookP50us-median(handlerLook), len(plainLook))
	b.set("service.lookup_p99_ms", quantile(plainLook, 0.99), len(plainLook))
	b.set("service.churn_p50_ms", median(plainChurn), len(plainChurn))
	b.set("service.churn_p99_ms", quantile(plainChurn, 0.99), len(plainChurn))
	b.set("runtime.gc_cycles", ratio(float64(gc.cycles), float64(tracedOK)), tracedOK)
	b.set("runtime.gc_pause_s", ratio(gc.pauseS, float64(tracedOK)), tracedOK)
	b.set("trace.overhead_frac", median(tracedLook)/median(plainLook)-1, len(tracedLook))
	b.tracer = tr
	return nil
}

// checkBuilds counts one operation: the service must have built exactly
// one assignment per warmed key, however many requests asked for each.
func checkBuilds(b *bench, srv *mixServer, want int) {
	if got := srv.srv.AssignmentBuilds(); got != int64(want) {
		b.op(fmt.Errorf("service built %d assignments for %d distinct warmed keys", got, want))
		return
	}
	b.op(nil)
}

// check compares every lookup with a direct partitioning of the
// same key, and each client's stream with a direct PartitionState replay
// of the batches the service accepted. In the traced run the replay's
// ApplyBatch calls are spans, timed per edge.
func (m *mix) check(paths map[string]string) error {
	b, keys, clients := m.b, m.keys, m.clients
	refs := make([]*partition.Assignment, len(keys))
	loaded := map[string]*graph.Graph{}
	for i, k := range keys {
		g := loaded[k.dataset]
		if g == nil {
			var err error
			if g, err = graph.LoadFile(paths[k.dataset]); err != nil {
				return err
			}
			loaded[k.dataset] = g
		}
		strat, err := partition.New(k.strategy, partition.Options{})
		if err != nil {
			return err
		}
		if refs[i], err = partition.ParallelPartition(g, strat, mixParts, b.cfg.seed, 1); err != nil {
			return err
		}
	}
	for _, mc := range clients {
		for _, l := range mc.lookups {
			a := refs[l.key]
			master, replicas := a.Master(l.vertex), a.Replicas(l.vertex)
			if b.cfg.wrongRef {
				master++
			}
			if l.master != master || l.replicas != replicas {
				b.op(fmt.Errorf("lookup %v vertex %d: service says master %d, %d replicas; direct assignment says %d, %d",
					keys[l.key], l.vertex, l.master, l.replicas, master, replicas))
				continue
			}
			b.op(nil)
		}
	}

	tr := b.tracer // nil in the untraced run
	var applyS float64
	var applied int
	for _, mc := range clients {
		strat, err := partition.New(churnStrategy, partition.Options{Loaders: 1})
		if err != nil {
			return err
		}
		st, err := partition.NewPartitionState(strat, mixParts, b.cfg.seed, 0)
		if err != nil {
			return err
		}
		for _, cb := range mc.trace[:mc.sent] {
			start := time.Now()
			err := tr.root("partition.PartitionState.ApplyBatch", func(spanCtx) error {
				_, err := st.ApplyBatch(cb.adds, cb.dels)
				return err
			})
			applyS += time.Since(start).Seconds()
			applied += len(cb.adds) + len(cb.dels)
			if err != nil {
				return fmt.Errorf("replaying client %d: %w", mc.id, err)
			}
		}
		live, rf := st.NumEdges(), st.ReplicationFactor()
		if b.cfg.wrongRef {
			live++
		}
		if mc.sent > 0 && (live != mc.lastLive || rf != mc.lastRF) {
			b.op(fmt.Errorf("client %d stream: service reports %d live edges at RF %v, direct replay %d at RF %v",
				mc.id, mc.lastLive, mc.lastRF, live, rf))
			continue
		}
		b.op(nil)
	}
	if tr != nil {
		b.set("partition.state_apply_us_per_edge", ratio(applyS*1e6, float64(applied)), applied)
	}
	return nil
}
