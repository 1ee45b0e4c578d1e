// Node classification on a product co-purchasing network — the paper's
// motivating recommender-system workload (ogbn-products).
//
// The example trains the same GCN with the WholeGraph pipeline and with the
// DGL-like host-memory baseline, showing the paper's two headline results
// side by side: the epoch-time speedup from moving sampling and feature
// gathering onto the GPUs, and the accuracy parity between the pipelines
// (they share the training math; only the data path differs).
//
//	go run ./examples/nodeclass
package main

import (
	"fmt"
	"log"

	"wholegraph"
)

const epochs = 12

func main() {
	ds, err := wholegraph.GenerateDataset(wholegraph.OgbnProducts.Scaled(0.002))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ogbn-products (scaled): %d products, %d co-purchase edges, %d classes\n\n",
		ds.Graph.N, ds.NumEdgePairs(), ds.Spec.NumClasses)

	opts := wholegraph.TrainOptions{
		Arch:    "gcn",
		Batch:   64,
		Fanouts: []int{8, 8},
		Hidden:  32,
		LR:      0.01,
		Dropout: 0.3,
	}

	type result struct {
		name      string
		epochTime float64
		valAcc    float64
	}
	var results []result

	run := func(name string, mk func(*wholegraph.Machine) (*wholegraph.Trainer, error)) {
		machine := wholegraph.NewDGXA100(1)
		tr, err := mk(machine)
		if err != nil {
			log.Fatal(err)
		}
		machine.Reset()
		var sumEpoch float64
		for e := 0; e < epochs; e++ {
			st := tr.RunEpoch()
			sumEpoch += st.EpochTime
		}
		valAcc, err := tr.Evaluate(ds.Val, 0)
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, result{name: name, epochTime: sumEpoch / epochs, valAcc: valAcc})
	}

	run("WholeGraph", func(m *wholegraph.Machine) (*wholegraph.Trainer, error) {
		return wholegraph.NewTrainer(m, ds, opts)
	})
	run("DGL (host memory)", func(m *wholegraph.Machine) (*wholegraph.Trainer, error) {
		return wholegraph.NewBaselineTrainer(m, ds, opts, wholegraph.DGL)
	})

	fmt.Printf("%-20s %16s %12s\n", "pipeline", "avg epoch (ms)", "val acc")
	for _, r := range results {
		fmt.Printf("%-20s %16.2f %12.3f\n", r.name, r.epochTime*1e3, r.valAcc)
	}
	fmt.Printf("\nspeedup: %.2fx — same model, same samples, different data path\n",
		results[1].epochTime/results[0].epochTime)
}
