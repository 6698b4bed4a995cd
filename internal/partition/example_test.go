package partition_test

import (
	"fmt"

	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

// ExampleParallelPartition partitions a small graph with Grid (a stateless
// hash-family strategy) and reads off the paper's quality metrics:
// replication factor (§5.1.1) and edge balance. Workers=0 uses GOMAXPROCS;
// the worker count never changes the result.
func ExampleParallelPartition() {
	g := graph.FromEdges("example", []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3},
		{Src: 3, Dst: 0}, {Src: 0, Dst: 2}, {Src: 1, Dst: 3},
	})
	s := partition.MustNew("Grid", partition.Options{})
	a, err := partition.ParallelPartition(g, s, 4, 1, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("strategy=%s parts=%d\n", a.Strategy, a.NumParts)
	fmt.Printf("replication factor %.2f, edge balance %.2f\n",
		a.ReplicationFactor(), a.EdgeBalance())
	// Output:
	// strategy=Grid parts=4
	// replication factor 2.00, edge balance 2.00
}
