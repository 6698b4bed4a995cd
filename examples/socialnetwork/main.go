// Social-network scenario: run PageRank on a Twitter-like heavy-tailed graph
// under both the PowerGraph engine and PowerLyra's hybrid engine, across
// partitioning strategies, and show (a) the replication-factor ↔ network
// correlation of Fig 5.3 and (b) the hybrid engine's natural-application
// savings of Fig 6.1.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"graphpart/internal/app"
	"graphpart/internal/cluster"
	"graphpart/internal/datasets"
	"graphpart/internal/engine"
	"graphpart/internal/metrics"
	"graphpart/internal/partition"
)

func main() {
	log.SetFlags(0)

	g := datasets.MustLoad("twitter", 1)
	fmt.Printf("dataset %v (stand-in for the paper's 1.46B-edge Twitter graph)\n\n", g)

	cc := cluster.Local9
	model := cluster.DefaultModel()
	strategies := []string{"Random", "Grid", "Oblivious", "HDRF", "Hybrid"}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "strategy\tRF\tPG net GB\tPG compute s\tLyra net GB\tLyra compute s")

	var rfs, nets []float64
	for _, name := range strategies {
		s, err := partition.New(name, partition.Options{HybridThreshold: 30})
		if err != nil {
			log.Fatal(err)
		}
		a, err := partition.ParallelPartition(g, s, cc.NumParts(), 1, 0)
		if err != nil {
			log.Fatal(err)
		}
		pg, err := engine.Run[float64, float64](engine.ModePowerGraph, app.PageRank{}, a, cc, model,
			engine.Options{FixedIterations: 10})
		if err != nil {
			log.Fatal(err)
		}
		lyra, err := engine.Run[float64, float64](engine.ModePowerLyra, app.PageRank{}, a, cc, model,
			engine.Options{FixedIterations: 10, HighDegreeThreshold: 30})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%s\t%.2f\t%.4f\t%.4f\t%.4f\t%.4f\n",
			name, a.ReplicationFactor(),
			pg.Stats.AvgNetInGB, pg.Stats.ComputeSeconds,
			lyra.Stats.AvgNetInGB, lyra.Stats.ComputeSeconds)
		rfs = append(rfs, a.ReplicationFactor())
		nets = append(nets, pg.Stats.AvgNetInGB)
	}
	w.Flush()

	fit, err := metrics.Fit(rfs, nets)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPowerGraph network ~ replication factor: slope=%.4g GB/replica, R²=%.3f\n", fit.Slope, fit.R2)
	fmt.Println("(the paper's Fig 5.3: network IO is a linear function of replication factor)")
	fmt.Println("PowerLyra columns show the hybrid engine cutting traffic for the natural PageRank.")
}
