package engine_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"graphpart/internal/engine"
	"graphpart/internal/gen"
	"graphpart/internal/partition"
)

// outputHash is the FNV-1a hash of a run's Values and every Stats field.
// %v prints a float64 in its shortest round-tripping form, so two hashes
// match only when every value is bit-identical.
func outputHash(values any, stats engine.Stats) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v\n%#v", values, stats)
	return fmt.Sprintf("%016x", h.Sum64())
}

// pinnedOutputs are the output hashes of every detCases application on the
// det-plaw graph. They pin the simulated cost accounting byte-for-byte, so
// a change to the engine's hot path that alters any Stats bit fails here
// in seconds instead of only in the slow bench goldens.
var pinnedOutputs = map[string]string{
	"Random/mode0/PageRank(10)": "f81418fa8d34ffaa",
	"Random/mode0/PageRank(C)":  "73d287ae7b009f6d",
	"Random/mode0/WCC":          "67983ea685b8e842",
	"Random/mode0/SSSP":         "6f0a3d82737de1e7",
	"Random/mode0/K-Core":       "a512f6cdafb9dcc9",
	"Random/mode0/Coloring":     "b08f132d7cb75870",
	"Random/mode1/PageRank(10)": "fa3faf14c911d190",
	"Random/mode1/PageRank(C)":  "cdde2292869fe7a6",
	"Random/mode1/WCC":          "c9face4a6ac2bfc8",
	"Random/mode1/SSSP":         "f795b40329032f88",
	"Random/mode1/K-Core":       "09b593b0e0b2955a",
	"Random/mode1/Coloring":     "346eec27061f37d4",
	"Hybrid/mode0/PageRank(10)": "62ce4cf03cbd2cc9",
	"Hybrid/mode0/PageRank(C)":  "b60bd8ed41273010",
	"Hybrid/mode0/WCC":          "d0b632c8bf4f9560",
	"Hybrid/mode0/SSSP":         "6f1c2bc1610342ec",
	"Hybrid/mode0/K-Core":       "9e6225a951cf9b06",
	"Hybrid/mode0/Coloring":     "8592c0147a0c5b6b",
	"Hybrid/mode1/PageRank(10)": "25ab3a888a7aa020",
	"Hybrid/mode1/PageRank(C)":  "9391707035617893",
	"Hybrid/mode1/WCC":          "9a807ba773350bd6",
	"Hybrid/mode1/SSSP":         "77422374ff8c6f9f",
	"Hybrid/mode1/K-Core":       "d4944dbf2bf3eedb",
	"Hybrid/mode1/Coloring":     "07e36a444cf0f830",
}

func TestPinnedOutputs(t *testing.T) {
	g := gen.PrefAttach("det-plaw", 2200, 5, 0x9)
	for _, strat := range []string{"Random", "Hybrid"} {
		s := partition.MustNew(strat, partition.Options{HybridThreshold: 30})
		a, err := partition.ParallelPartition(g, s, 9, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []engine.Mode{engine.ModePowerGraph, engine.ModePowerLyra} {
			for _, tc := range detCases(model) {
				name := fmt.Sprintf("%s/mode%d/%s", strat, mode, tc.name)
				vals, stats, err := tc.run(mode, a, 2)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := outputHash(vals, stats), pinnedOutputs[name]; got != want {
					t.Errorf("%s: output hash %s, pinned %s", name, got, want)
				}
			}
		}
	}
}
