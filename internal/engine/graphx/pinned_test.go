package graphx_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"graphpart/internal/app"
	"graphpart/internal/cluster"
	"graphpart/internal/engine/graphx"
	"graphpart/internal/gen"
)

// outputHash is the FNV-1a hash of a run's Values and every Stats field.
// %v prints a float64 in its shortest round-tripping form, so two hashes
// match only when every value is bit-identical.
func outputHash(values any, stats graphx.Stats) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v\n%#v", values, stats)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPinnedOutputs pins the GraphX engine's Values and Stats byte-for-byte
// on the det-plaw graph. PageRank runs under executor-memory pressure so the
// GC multiplier on priced work is covered too.
func TestPinnedOutputs(t *testing.T) {
	g := gen.PrefAttach("det-plaw", 2200, 5, 0x9)
	cc := cluster.GraphXLocal9
	a := gxAssignment(t, g, "CanonicalRandom", cc)
	var total float64
	for p := 0; p < a.NumParts; p++ {
		total += float64(a.ReplicasOnPart(p))*float64(model.ReplicaBytes) +
			float64(a.EdgeCount[p])*float64(model.EdgeMemBytes)
	}
	pressured := model.ExecutorBase + total/float64(cc.Machines)*1.5

	cases := []struct {
		name, want string
		run        func() (any, graphx.Stats, error)
	}{
		{"PageRank", "0db2ff72a5fd1a88", func() (any, graphx.Stats, error) {
			out, err := graphx.Run[float64, float64](app.PageRank{}, a,
				graphx.Config{Cluster: cc, Iterations: 10, ExecutorMemBytes: pressured, Workers: 2}, model)
			if err != nil {
				return nil, graphx.Stats{}, err
			}
			if out.Stats.GCOverhead <= 1 {
				t.Errorf("PageRank: GCOverhead %v, want memory pressure > 1", out.Stats.GCOverhead)
			}
			return out.Values, out.Stats, nil
		}},
		{"WCC", "aeb1509f588b6545", func() (any, graphx.Stats, error) {
			out, err := graphx.Run[uint32, uint32](app.WCC{}, a, graphx.Config{Cluster: cc, Workers: 2}, model)
			if err != nil {
				return nil, graphx.Stats{}, err
			}
			return out.Values, out.Stats, nil
		}},
		{"SSSP", "39c3202734d873ed", func() (any, graphx.Stats, error) {
			out, err := graphx.Run[float64, float64](app.SSSP{Source: 0}, a, graphx.Config{Cluster: cc, Workers: 2}, model)
			if err != nil {
				return nil, graphx.Stats{}, err
			}
			return out.Values, out.Stats, nil
		}},
	}
	for _, tc := range cases {
		vals, stats, err := tc.run()
		if err != nil {
			t.Fatal(err)
		}
		if got := outputHash(vals, stats); got != tc.want {
			t.Errorf("%s: output hash %s, pinned %s", tc.name, got, tc.want)
		}
	}
}
