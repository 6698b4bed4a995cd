package bench

// Load/ingress throughput experiments: the hot paths the thesis's loading
// phase leans on. load.speed measures every on-disk format × load path the
// repo supports; ing.scale measures sharded stateless ingress by worker
// count. The rendered tables carry only deterministic facts (file sizes,
// replication metrics) so the goldens stay byte-stable; the wall-clock
// throughput lands in non-presentation cells, which -compare gates at the
// wide report.ThroughputRelTol band. The strict speed assertions only fire
// at scales and core counts where they are meaningful, so scale-1 baseline
// runs never record a machine-dependent verdict.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"graphpart/internal/graph"
	"graphpart/internal/partition"
	"graphpart/internal/report"
)

func init() {
	register(loadSpeed())
	register(ingScale())
}

// timeOp times one run of f, flooring the result so derived rates stay
// finite at test scales.
func timeOp(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	elapsed := time.Since(start)
	if elapsed < time.Microsecond {
		elapsed = time.Microsecond
	}
	return elapsed, err
}

// rate converts a count over a duration into a per-second rate.
func rate(count int64, d time.Duration) float64 {
	return float64(count) / d.Seconds()
}

func loadSpeed() Experiment {
	return Experiment{
		ID:    "load.speed",
		Title: "Load-path throughput by format (text, csrg-v1, csrg-v2)",
		Paper: "the paper's ingestion phase reads the edge list once per run (§4.1); its cost is format-bound — parse-bound for text, I/O-bound for binary — so the loader formats are a first-order term in total time-to-solution",
		Run: func(cfg Config) (*Result, error) {
			// Power-law graphs are where delta+varint compression pays
			// (locality-heavy edge order → small deltas); road-ca is the
			// low-skew contrast.
			powerLaw := []string{"uk-web", "twitter"}
			names := append([]string{"road-ca"}, powerLaw...)

			dir, err := os.MkdirTemp("", "loadspeed-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)

			r := NewResult("load.speed", "On-disk formats: size and load paths",
				"dataset", "format", "file-bytes", "bytes/edge")
			sizes := map[[2]string]float64{} // (dataset, format) → bytes
			for _, ds := range names {
				g, err := loadGraph(cfg, ds)
				if err != nil {
					return nil, err
				}
				edges := int64(g.NumEdges())
				byteSize := func(path string) (int64, error) {
					fi, err := os.Stat(path)
					if err != nil {
						return 0, err
					}
					return fi.Size(), nil
				}

				type format struct {
					name  string
					path  string
					write func(string) error
				}
				formats := []format{
					{"text", filepath.Join(dir, ds+".txt"), func(p string) error { return graph.SaveEdgeList(g, p) }},
					{"csrg-v1", filepath.Join(dir, ds+".v1.csrg"), func(p string) error { return graph.SaveCSRVersion(g, p, graph.CSRVersion1) }},
					{"csrg-v2", filepath.Join(dir, ds+".v2.csrg"), func(p string) error { return graph.SaveCSRVersion(g, p, graph.CSRVersion2) }},
				}
				for _, f := range formats {
					if err := f.write(f.path); err != nil {
						return nil, err
					}
					bytes, err := byteSize(f.path)
					if err != nil {
						return nil, err
					}
					sizes[[2]string{ds, f.name}] = float64(bytes)
					r.Row(report.Dims{Dataset: ds, Variant: f.name}).
						Col(ds, f.name).
						Metric("file-bytes", float64(bytes), "B", 0).
						Metric("bytes-per-edge", float64(bytes)/float64(edges), "B/edge", 2)
				}

				// The materialized loaders: full-file parse/decode into a
				// Graph. v1 is measured through both the mmap path and the
				// portable read fallback so the baseline records the gap.
				type loader struct {
					variant string
					load    func() error
				}
				v1 := formats[1].path
				loaders := []loader{
					{"text/load", func() error { _, err := graph.LoadFile(formats[0].path); return err }},
					{"csrg-v1/mmap", func() error { _, err := graph.LoadCSR(v1); return err }},
					{"csrg-v1/read", func() error {
						_, err := graph.LoadCSRWith(v1, graph.CSRLoadOptions{DisableMmap: true})
						return err
					}},
					{"csrg-v2/load", func() error { _, err := graph.LoadCSR(formats[2].path); return err }},
					{"text/stream", streamer(formats[0].path)},
					{"csrg-v1/stream", streamer(v1)},
					{"csrg-v2/stream", streamer(formats[2].path)},
				}
				elapsed := map[string]time.Duration{}
				for _, l := range loaders {
					d, err := timeOp(l.load)
					if err != nil {
						return nil, fmt.Errorf("%s %s: %w", ds, l.variant, err)
					}
					elapsed[l.variant] = d
					fileBytes := sizes[[2]string{ds, formatOf(l.variant)}]
					dims := report.Dims{Dataset: ds, Variant: l.variant}
					r.Cell(dims, "throughput", rate(edges, d), "edges/s")
					r.Cell(dims, "bandwidth", rate(int64(fileBytes), d), "B/s")
				}
				// The mmap-vs-read speed claim needs real file sizes to rise
				// above noise; assert it only at scale 10+, where the v1 file
				// is tens of MB. (BenchmarkLoadCSRMmap and the non-short
				// TestCSRLoadSpeedupAt1MEdges pin the same claim in-tree.)
				if ds == "uk-web" && cfg.scale() >= 10 {
					speedup := elapsed["csrg-v1/read"].Seconds() / elapsed["csrg-v1/mmap"].Seconds()
					r.Checkf(speedup >= 1.5, "mmap loads ≥1.5× faster than the v1 read path at scale 10",
						"mmap v1 load is %.2f× the read path (want ≥1.5×): %s", speedup, Mark(speedup >= 1.5))
				}
			}

			// Compression is deterministic, so this check is golden-safe.
			pass := true
			worst := 0.0
			for _, ds := range powerLaw {
				ratio := sizes[[2]string{ds, "csrg-v2"}] / sizes[[2]string{ds, "csrg-v1"}]
				if ratio > worst {
					worst = ratio
				}
				if ratio > 0.75 {
					pass = false
				}
			}
			r.Checkf(pass, "csrg-v2 is ≥25% smaller than csrg-v1 on power-law datasets",
				"csrg-v2 is ≥25%% smaller than v1 on power-law datasets (worst ratio %.3f): %s", worst, Mark(pass))
			r.Notef("throughput (edges/s, B/s) is recorded as report cells per dataset×path; -compare gates them at the wide rate tolerance")
			return r, nil
		},
	}
}

// streamer returns a closure that streams path's edges through the
// bounded-memory path, discarding the batches.
func streamer(path string) func() error {
	return func() error {
		_, _, err := graph.StreamFile(path, 0, func(int64, []graph.Edge) error { return nil })
		return err
	}
}

// formatOf maps a loader variant ("csrg-v1/mmap") back to its file format
// ("csrg-v1") for size lookups.
func formatOf(variant string) string {
	for i := range variant {
		if variant[i] == '/' {
			return variant[:i]
		}
	}
	return variant
}

func ingScale() Experiment {
	return Experiment{
		ID:    "ing.scale",
		Title: "Sharded stateless ingress scaling by worker count",
		Paper: "stateless strategies place each edge independently, so ingress should parallelize near-linearly (§5.2.1) — the whole point of hash-family partitioners is that loaders need no coordination",
		Run: func(cfg Config) (*Result, error) {
			g, err := loadGraph(cfg, "uk-web")
			if err != nil {
				return nil, err
			}
			s, err := partition.New("2D", partition.Options{HybridThreshold: cfg.HybridThreshold})
			if err != nil {
				return nil, err
			}
			ss, ok := s.(partition.StatelessStrategy)
			if !ok {
				return nil, fmt.Errorf("2D is not stateless")
			}
			const parts = 16

			ingest := func(workers int) (*partition.StreamSummary, time.Duration, error) {
				sb, err := partition.NewShardedStreamBuilder(ss, parts, workers, cfg.Seed)
				if err != nil {
					return nil, 0, err
				}
				var sum *partition.StreamSummary
				d, err := timeOp(func() error {
					for lo := 0; lo < len(g.Edges); lo += graph.DefaultBatchSize {
						hi := lo + graph.DefaultBatchSize
						if hi > len(g.Edges) {
							hi = len(g.Edges)
						}
						if err := sb.Feed(partition.EdgeBatch{Offset: int64(lo), Edges: g.Edges[lo:hi]}); err != nil {
							return err
						}
					}
					sum, err = sb.Finish()
					return err
				})
				return sum, d, err
			}

			r := NewResult("ing.scale", "Sharded ingress (uk-web, 2D, 16 parts) by worker count",
				"workers", "replication-factor", "edge-balance")
			if _, _, err := ingest(4); err != nil { // warm pools and caches
				return nil, err
			}
			var base *partition.StreamSummary
			elapsed := map[int]time.Duration{}
			identical := true
			for _, workers := range []int{1, 2, 4, 8} {
				sum, d, err := ingest(workers)
				if err != nil {
					return nil, err
				}
				elapsed[workers] = d
				if base == nil {
					base = sum
				} else if sum.ReplicationFactor() != base.ReplicationFactor() ||
					sum.EdgeBalance() != base.EdgeBalance() ||
					!mastersEqual(sum.Masters, base.Masters) {
					identical = false
				}
				r.Row(report.Dims{Dataset: "uk-web", Strategy: "2D", Parts: parts,
					Variant: fmt.Sprintf("workers=%d", workers)}).
					Colf("%d", workers).
					Metric("replication-factor", sum.ReplicationFactor(), "ratio", 3).
					Metric("edge-balance", sum.EdgeBalance(), "max/mean", 3).
					Value("throughput", rate(int64(g.NumEdges()), d), "edges/s")
			}
			r.Checkf(identical, "sharded ingress summaries are identical at every worker count",
				"masters, RF and balance are identical at 1/2/4/8 workers: %s", Mark(identical))
			// The scaling claim is only observable with ≥4 real cores and
			// enough edges per run; TestShardedIngressScales asserts it
			// non-short at test scale, the experiment at -scale 4+.
			if runtime.NumCPU() >= 4 && cfg.scale() >= 4 {
				speedup := elapsed[1].Seconds() / elapsed[4].Seconds()
				r.Checkf(speedup >= 2, "streamed ingress scales ≥2× from 1→4 workers",
					"ingress speedup 1→4 workers is %.2f× (want ≥2×): %s", speedup, Mark(speedup >= 2))
			}
			return r, nil
		},
	}
}

// mastersEqual compares two master arrays.
func mastersEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
