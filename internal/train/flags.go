package train

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// The flag binding: every command-line spelling of an Options field — name,
// help text — is written here once, beside the struct, and nowhere else.
// wgtrain binds both groups, wgbench the execution/storage group, wgserve
// the rows of it that serving shares. A flag's default is whatever the
// caller put in the field before binding.

// BindModelFlags declares the model and optimizer flags on fs, each bound to
// its field of o.
func (o *Options) BindModelFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.Arch, "model", o.Arch, "model: gcn, graphsage, gat, gin")
	fs.IntVar(&o.Batch, "batch", o.Batch, "mini-batch size per GPU")
	fs.Var((*fanoutsFlag)(&o.Fanouts), "fanouts", "per-layer sample `counts`, comma-separated")
	fs.IntVar(&o.Hidden, "hidden", o.Hidden, "hidden size")
	fs.IntVar(&o.Heads, "heads", o.Heads, "GAT attention heads")
	fs.Float64Var(&o.LR, "lr", o.LR, "Adam learning rate")
	fs.Var((*float32Flag)(&o.Dropout), "dropout", "dropout `probability`")
	fs.Int64Var(&o.Seed, "seed", o.Seed, "random seed")
}

// BindExecFlags declares the execution and storage flags on fs, each bound
// to its field of o. With names given, only those flags are declared — the
// subset a command shares with training; an unknown name is a programming
// error and panics.
func (o *Options) BindExecFlags(fs *flag.FlagSet, names ...string) {
	all := fs
	if len(names) > 0 {
		all = flag.NewFlagSet("", flag.ContinueOnError)
	}
	all.BoolVar(&o.Pipeline, "pipeline", o.Pipeline, "overlap batch building with training on each device's copy stream (WholeGraph only; identical math, shorter virtual epochs)")
	all.BoolVar(&o.OverlapGrads, "overlap-grads", o.OverlapGrads, "overlap bucketed gradient AllReduce with backward on the copy stream (WholeGraph only; identical math, different virtual epochs)")
	all.BoolVar(&o.Schedule, "schedule", o.Schedule, "capture the training step once per worker and replay it through the whole-step DAG scheduler (WholeGraph only; identical math, shorter virtual epochs)")
	all.BoolVar(&o.PagedFeatures, "paged-features", o.PagedFeatures, "serve features from the out-of-core paged store (WholeGraph only; bit-identical math)")
	all.IntVar(&o.FeatPageRows, "feat-page-rows", o.FeatPageRows, "paged-store rows per page (0 = default)")
	all.IntVar(&o.FeatCacheMB, "feat-cache-mb", o.FeatCacheMB, "paged-store per-device BlockCache budget in MiB (0 = default)")
	all.BoolVar(&o.PagedTopo, "paged-topo", o.PagedTopo, "serve the CSR column array from the paged topology store (WholeGraph only; bit-identical sampling)")
	all.IntVar(&o.TopoPageEdges, "topo-page-edges", o.TopoPageEdges, "topology-store column entries per page (0 = default)")
	all.IntVar(&o.TopoCacheMB, "topo-cache-mb", o.TopoCacheMB, "topology-store per-device BlockCache budget in MiB (0 = default)")
	all.IntVar(&o.PrefetchPages, "prefetch-pages", o.PrefetchPages, "fault-prefetch up to this many predicted pages per paged store ahead of each batch (0 = off)")
	all.StringVar(&o.CachePolicy, "cache-policy", o.CachePolicy, "paged-store BlockCache policy: lru (default) or admit (frequency-aware admission)")
	for _, name := range names {
		f := all.Lookup(name)
		if f == nil {
			panic(fmt.Sprintf("train: BindExecFlags: no flag -%s", name))
		}
		fs.Var(f.Value, f.Name, f.Usage)
	}
}

// ParseFanouts reads per-layer sample counts from their flag spelling,
// "10,10,5".
func ParseFanouts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad fanout %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// fanoutsFlag is a []int under the flag package's Value interface.
type fanoutsFlag []int

func (f *fanoutsFlag) Set(s string) error {
	v, err := ParseFanouts(s)
	if err == nil {
		*f = v
	}
	return err
}

func (f *fanoutsFlag) String() string {
	parts := make([]string, len(*f))
	for i, v := range *f {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

// float32Flag is a float32 under the flag package's Value interface. It
// parses at double precision and narrows, as float32(flag.Float64) would.
type float32Flag float32

func (f *float32Flag) Set(s string) error {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil {
		*f = float32Flag(v)
	}
	return err
}

func (f *float32Flag) String() string {
	return strconv.FormatFloat(float64(*f), 'g', -1, 32)
}
