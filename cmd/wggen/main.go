// Command wggen generates and inspects the synthetic evaluation graphs:
// it prints size, degree distribution and split statistics, and can export
// the edge list and labels for external tooling.
//
// Usage:
//
//	wggen -dataset ogbn-products -scale 0.001
//	wggen -dataset Friendster -scale 1e-4 -edges-out edges.tsv -labels-out labels.tsv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"

	"wholegraph"
)

func main() {
	var (
		dsName    = flag.String("dataset", "ogbn-products", "dataset: ogbn-products, ogbn-papers100M, Friendster, UK_domain")
		scale     = flag.Float64("scale", 1e-3, "dataset scale factor")
		edgesOut  = flag.String("edges-out", "", "write the directed edge list as TSV")
		labelsOut = flag.String("labels-out", "", "write node labels (-1 = unlabeled) as TSV")
		saveOut   = flag.String("save", "", "write the full dataset in binary form (reload with wgtrain -load)")
	)
	flag.Parse()

	spec, found := wholegraph.LookupDataset(*dsName)
	if !found {
		fatal(fmt.Errorf("unknown dataset %q", *dsName))
	}
	if err := wholegraph.CheckScale(*scale); err != nil {
		fatal(err)
	}

	ds, err := wholegraph.GenerateDataset(spec.Scaled(*scale))
	if err != nil {
		fatal(err)
	}
	g := ds.Graph
	fmt.Printf("dataset:        %s\n", ds.Spec.Name)
	fmt.Printf("nodes:          %d\n", g.N)
	fmt.Printf("stored edges:   %d (undirected pairs: %d)\n", g.NumEdges(), ds.NumEdgePairs())
	fmt.Printf("feature dim:    %d\n", ds.Spec.FeatDim)
	fmt.Printf("classes:        %d\n", ds.Spec.NumClasses)
	fmt.Printf("splits:         %d train / %d val / %d test\n", len(ds.Train), len(ds.Val), len(ds.Test))

	// Degree distribution summary.
	degs := make([]int64, g.N)
	for v := int64(0); v < g.N; v++ {
		degs[v] = g.Degree(v)
	}
	sort.Slice(degs, func(i, j int) bool { return degs[i] < degs[j] })
	pct := func(p float64) int64 { return degs[int(float64(len(degs)-1)*p)] }
	fmt.Printf("degree:         avg %.1f, p50 %d, p90 %d, p99 %d, max %d\n",
		float64(g.NumEdges())/float64(g.N), pct(0.5), pct(0.9), pct(0.99), degs[len(degs)-1])

	if *edgesOut != "" {
		if err := writeEdges(*edgesOut, ds); err != nil {
			fatal(err)
		}
		fmt.Printf("edges written:  %s\n", *edgesOut)
	}
	if *labelsOut != "" {
		if err := writeLabels(*labelsOut, ds); err != nil {
			fatal(err)
		}
		fmt.Printf("labels written: %s\n", *labelsOut)
	}
	if *saveOut != "" {
		if err := ds.SaveFile(*saveOut); err != nil {
			fatal(err)
		}
		fmt.Printf("dataset saved:  %s\n", *saveOut)
	}
}

func writeEdges(path string, ds *wholegraph.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	g := ds.Graph
	for v := int64(0); v < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			fmt.Fprintf(w, "%d\t%d\n", v, u)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func writeLabels(path string, ds *wholegraph.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for v, lab := range ds.Labels {
		fmt.Fprintf(w, "%d\t%d\n", v, lab)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wggen:", err)
	os.Exit(1)
}
