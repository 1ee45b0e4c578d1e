// Quickstart: the smallest end-to-end WholeGraph run.
//
// It builds a simulated DGX-A100, generates a scaled ogbn-products-like
// graph, partitions it into multi-GPU distributed shared memory, trains a
// 2-layer GraphSAGE for a few epochs, and prints the virtual epoch times
// with the sampling / gathering / training breakdown.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"wholegraph"
)

func main() {
	// One simulated DGX-A100 node: 8 A100 GPUs behind NVSwitch.
	machine := wholegraph.NewDGXA100(1)

	// A 1/1000-scale stand-in for ogbn-products (2.4k nodes, ~62k edge
	// pairs, 100-dim features, 47 classes).
	ds, err := wholegraph.GenerateDataset(wholegraph.OgbnProducts.Scaled(0.001))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %s — %d nodes, %d stored edges, %d training nodes\n",
		ds.Spec.Name, ds.Graph.N, ds.Graph.NumEdges(), len(ds.Train))

	// The trainer partitions graph structure and features across all 8
	// GPUs (hash partitioning, CUDA-IPC-style setup) and runs one
	// data-parallel worker per GPU.
	trainer, err := wholegraph.NewTrainer(machine, ds, wholegraph.TrainOptions{
		Arch:    "graphsage",
		Batch:   32,
		Fanouts: []int{5, 5},
		Hidden:  32,
		LR:      0.01,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("multi-GPU store setup: %.1f ms (virtual, one-time)\n\n", machine.MaxTime()*1e3)
	machine.Reset()

	for epoch := 1; epoch <= 8; epoch++ {
		st := trainer.RunEpoch()
		fmt.Printf("epoch %d: %.2f ms  (sample %.2f ms, gather %.2f ms, train %.2f ms)  loss %.3f  acc %.2f\n",
			st.Epoch, st.EpochTime*1e3,
			st.Timing.Sample*1e3, st.Timing.Gather*1e3, st.Timing.Train*1e3,
			st.Loss, st.TrainAcc)
	}
	acc, err := trainer.Evaluate(ds.Val, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nvalidation accuracy: %.3f\n", acc)
}
