// Embedding retrieval end to end: train a small GraphSAGE, embed every
// node with full-graph layer-wise inference, build a deterministic HNSW
// index over the embedding table (sharded across the node's GPUs like any
// other shared allocation), and serve top-K nearest-neighbor queries
// through the dynamic batcher — recall@K against the exact brute-force
// oracle reported next to tail latency, all in virtual time.
//
//	go run ./examples/retrieval
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

	// Train the encoder whose embeddings we will index.
	trainMachine := wholegraph.NewDGXA100(1)
	trainer, err := wholegraph.NewTrainer(trainMachine, ds, wholegraph.TrainOptions{
		Arch:    "graphsage",
		Batch:   64,
		Fanouts: []int{5, 5},
		Hidden:  32,
		LR:      0.01,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training...")
	for e := 0; e < 5; e++ {
		trainer.RunEpoch()
	}
	model := trainer.Models[0]

	// Embed the whole graph and index the table on a 4-GPU deployment.
	cfg := wholegraph.DGXA100Config(1)
	cfg.GPUsPerNode = 4
	machine := wholegraph.NewMachine(cfg)
	store, err := wholegraph.NewStore(machine, 0, ds)
	if err != nil {
		log.Fatal(err)
	}
	emb, err := wholegraph.FullGraphEmbeddings(store, model)
	if err != nil {
		log.Fatal(err)
	}
	index, err := wholegraph.BuildANNIndex(store.Comm, emb, wholegraph.ANNOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d embeddings (dim %d), setup %.1f ms virtual\n",
		index.N(), index.Dim(), machine.MaxTime()*1e3)

	// One query by hand: HNSW's answer vs the exact scan.
	machine.Reset()
	const probe = 42
	approx := index.Search(machine.Devs[0], index.Vector(probe), 5, 64)
	exact := index.Exact(index.Vector(probe), 5)
	fmt.Printf("\nnode %d nearest neighbors (HNSW ef=64 vs exact):\n", probe)
	for i := range approx {
		fmt.Printf("  #%d  hnsw: node %-6d d=%.4f   exact: node %-6d d=%.4f\n",
			i+1, approx[i].ID, approx[i].Dist, exact[i].ID, exact[i].Dist)
	}

	// Serve a skewed open-loop stream of top-10 queries.
	srv, err := wholegraph.NewRetrievalServer(index, wholegraph.ServeOptions{
		Rate:     150000,
		Requests: 1200,
		MaxBatch: 16,
		MaxDelay: 0.3e-3,
		SLO:      1e-3,
		Skew:     1.3,
		TopK:     10,
		EfSearch: 64,
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}
	machine.Reset()
	res, err := srv.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserved %d/%d requests: %.0f req/s, mean batch %.1f\n",
		res.Served, res.Offered, res.Throughput, res.MeanBatch)
	fmt.Printf("recall@%d %.3f (ef-search %d), p50 %.3f ms, p99 %.3f ms, SLO %.1f%%\n",
		res.TopK, res.Recall, res.EfSearch, res.P50*1e3, res.P99*1e3, 100*res.SLOAttainment)
	fmt.Println("\nthe batcher coalesces duplicate hot queries and answers each")
	fmt.Println("batch with one staged gather plus one search kernel; recall is")
	fmt.Println("scored against the exact oracle over the same embeddings.")
}
