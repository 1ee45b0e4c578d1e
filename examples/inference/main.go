// Offline inference over the shared-memory store: after training, every
// node of the graph is embedded with full-graph layer-wise propagation —
// each GNN layer applied to every node exactly once, intermediate
// embeddings living in distributed shared memory — and the result is
// compared against embedding the same nodes through the sampled mini-batch
// pipeline (which re-computes overlapping neighborhoods batch after batch).
//
//	go run ./examples/inference
package main

import (
	"fmt"
	"log"

	"wholegraph"
)

func main() {
	ds, err := wholegraph.GenerateDataset(wholegraph.OgbnProducts.Scaled(0.002))
	if err != nil {
		log.Fatal(err)
	}
	machine := wholegraph.NewDGXA100(1)
	trainer, err := wholegraph.NewTrainer(machine, ds, wholegraph.TrainOptions{
		Arch:    "gcn",
		Batch:   64,
		Fanouts: []int{10, 10},
		Hidden:  32,
		LR:      0.01,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training...")
	for e := 0; e < 10; e++ {
		trainer.RunEpoch()
	}

	// Full-graph layer-wise inference: one pass, every node.
	t0 := machine.MaxTime()
	logits, err := wholegraph.FullGraphInference(trainer.Stores[0], trainer.Models[0])
	if err != nil {
		log.Fatal(err)
	}
	fullTime := machine.MaxTime() - t0

	// The same embeddings via the sampled pipeline, batch by batch.
	t1 := machine.MaxTime()
	ids := make([]int64, ds.Graph.N)
	for i := range ids {
		ids[i] = int64(i)
	}
	sampled, err := trainer.Predict(ids)
	if err != nil {
		log.Fatal(err)
	}
	sampledTime := machine.MaxTime() - t1

	// Agreement on predicted classes (sampling uses finite fanout, so
	// high-degree nodes can differ slightly).
	agree := 0
	for v := range sampled {
		if argmax(sampled[v]) == argmaxRow(logits.Row(v)) {
			agree++
		}
	}
	fmt.Printf("embedded %d nodes\n", logits.R)
	fmt.Printf("full-graph: %.2f ms   sampled pipeline: %.2f ms   (%.1fx)\n",
		fullTime*1e3, sampledTime*1e3, sampledTime/fullTime)
	fmt.Printf("prediction agreement between the two paths: %.1f%%\n",
		100*float64(agree)/float64(len(sampled)))
}

func argmax(row []float32) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}

func argmaxRow(row []float32) int { return argmax(row) }
