package train

import (
	"flag"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"

	"wholegraph/internal/blockcache"
	"wholegraph/internal/core"
	"wholegraph/internal/featstore"
	"wholegraph/internal/topostore"
)

// notAFlag lists the Options fields no command line sets: harness and
// library knobs, and FeatEncoding, whose one value is the default. A field
// is either here or bound in flags.go.
var notAFlag = map[string]bool{
	"Backend": true, "RealWorkers": true, "MaxItersPerEpoch": true,
	"Trace": true, "FeatEncoding": true,
}

// boundFlags returns a flag set with both groups bound to o.
func boundFlags(o *Options) *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o.BindModelFlags(fs)
	o.BindExecFlags(fs)
	return fs
}

// presetOptions is an Options with every bound field off its zero value,
// standing for a command's defaults.
func presetOptions() Options {
	return Options{
		Arch: "gcn", Batch: 11, Fanouts: []int{2, 3}, Hidden: 13, Heads: 3,
		Dropout: 0.125, LR: 0.5, Seed: 9,
		Pipeline: true, OverlapGrads: true, Schedule: true,
		PagedFeatures: true, FeatPageRows: 19, FeatCacheMB: 23,
		PagedTopo: true, TopoPageEdges: 29, TopoCacheMB: 31, PrefetchPages: 37, CachePolicy: "admit",
	}
}

// changedFields names the fields in which a and b differ.
func changedFields(a, b Options) []string {
	var out []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			out = append(out, va.Type().Field(i).Name)
		}
	}
	return out
}

// offDefault is an argument that moves the flag off both the zero and the
// preset value.
func offDefault(f *flag.Flag) string {
	if b, ok := f.Value.(interface{ IsBoolFlag() bool }); ok && b.IsBoolFlag() {
		if f.DefValue == "true" {
			return "false"
		}
		return "true"
	}
	return "7" // an int, a float, a one-layer fanout list and a string all read it
}

// TestFlagsSetTheirFieldOnly: parsing one flag moves exactly one field, no
// two flags move the same field, and a flag's printed default is the value
// the struct held when it was bound.
func TestFlagsSetTheirFieldOnly(t *testing.T) {
	for _, base := range []Options{{}, presetOptions()} {
		seen := map[string]string{}
		o := base
		boundFlags(&o).VisitAll(func(f *flag.Flag) {
			got := base
			fs := boundFlags(&got)
			if err := fs.Parse([]string{"-" + f.Name + "=" + offDefault(f)}); err != nil {
				t.Fatalf("-%s: %v", f.Name, err)
			}
			ch := changedFields(base, got)
			if len(ch) != 1 {
				t.Fatalf("-%s=%s changed fields %v, want exactly one", f.Name, offDefault(f), ch)
			}
			if prev, dup := seen[ch[0]]; dup {
				t.Errorf("-%s and -%s both set %s", prev, f.Name, ch[0])
			}
			seen[ch[0]] = f.Name
			// fmt.Sprint spells every bound type the way its flag does,
			// bar the fanout list ("[2 3]" against "2,3").
			want := fmt.Sprint(reflect.ValueOf(base).FieldByName(ch[0]).Interface())
			if ch[0] == "Fanouts" {
				want = strings.ReplaceAll(strings.Trim(want, "[]"), " ", ",")
			}
			if f.DefValue != want {
				t.Errorf("-%s prints default %q, Options.%s holds %q", f.Name, f.DefValue, ch[0], want)
			}
		})
		unparsed := base
		if err := boundFlags(&unparsed).Parse(nil); err != nil || len(changedFields(base, unparsed)) != 0 {
			t.Errorf("parsing no arguments moved %v (err %v)", changedFields(base, unparsed), err)
		}
	}
}

// TestEveryOptionIsBoundOrListed: a field of Options is bound to a flag or on
// the not-a-flag list, never neither and never both — so a knob cannot be
// added to the struct without deciding how a user sets it.
func TestEveryOptionIsBoundOrListed(t *testing.T) {
	bound := map[string]bool{}
	var o Options
	boundFlags(&o).VisitAll(func(f *flag.Flag) {
		var got Options
		if err := boundFlags(&got).Parse([]string{"-" + f.Name + "=" + offDefault(f)}); err != nil {
			t.Fatalf("-%s: %v", f.Name, err)
		}
		for _, name := range changedFields(Options{}, got) {
			bound[name] = true
		}
	})
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		switch {
		case bound[name] && notAFlag[name]:
			t.Errorf("Options.%s is bound to a flag and on the not-a-flag list", name)
		case !bound[name] && !notAFlag[name]:
			t.Errorf("Options.%s has no flag in flags.go and is not on the not-a-flag list", name)
		}
		if typ.Field(i).Tag.Get("json") == "" {
			t.Errorf("Options.%s has no json tag: wgbench -json would spell it differently from its flag", name)
		}
	}
}

// TestExecFlagJSONKeys: an execution/storage flag's JSON key is its flag name
// with underscores, which is what lets a report be read back against a
// command line.
func TestExecFlagJSONKeys(t *testing.T) {
	var o Options
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o.BindExecFlags(fs)
	keys := map[string]bool{}
	typ := reflect.TypeOf(o)
	for i := 0; i < typ.NumField(); i++ {
		keys[typ.Field(i).Tag.Get("json")] = true
	}
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		if key := strings.ReplaceAll(f.Name, "-", "_"); !keys[key] {
			t.Errorf("-%s: no Options field tagged json:%q", f.Name, key)
		}
	})
	if n != 11 {
		t.Errorf("%d execution/storage flags, want 11", n)
	}
}

// TestBindExecFlagsSubset: naming flags declares those and no others, with
// the same help text and binding as the full set; an unknown name panics.
func TestBindExecFlagsSubset(t *testing.T) {
	var o, full Options
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o.BindExecFlags(fs, "feat-cache-mb", "paged-features", "cache-policy")
	all := flag.NewFlagSet("all", flag.ContinueOnError)
	full.BindExecFlags(all)
	var names []string
	fs.VisitAll(func(f *flag.Flag) {
		names = append(names, f.Name)
		if ref := all.Lookup(f.Name); ref.Usage != f.Usage || ref.DefValue != f.DefValue {
			t.Errorf("-%s: subset binding reads %q (default %q), full binding %q (default %q)",
				f.Name, f.Usage, f.DefValue, ref.Usage, ref.DefValue)
		}
	})
	sort.Strings(names)
	if got := strings.Join(names, " "); got != "cache-policy feat-cache-mb paged-features" {
		t.Errorf("subset declared %q", got)
	}
	if err := fs.Parse([]string{"-paged-features", "-feat-cache-mb", "40", "-cache-policy=admit"}); err != nil {
		t.Fatal(err)
	}
	if want := (Options{PagedFeatures: true, FeatCacheMB: 40, CachePolicy: "admit"}); !reflect.DeepEqual(o, want) {
		t.Errorf("parsed %+v", o)
	}
	defer func() {
		if recover() == nil {
			t.Error("an unknown flag name did not panic")
		}
	}()
	o.BindExecFlags(flag.NewFlagSet("bad", flag.ContinueOnError), "no-such-flag")
}

// legacyStoreOptions is the translation train.New carried inline before
// StoreOptions existed; benchmark/train.go still carries the same copy
// (storeOptions), frozen. StoreOptions must agree with it.
func legacyStoreOptions(o Options) (core.StoreOptions, error) {
	so := core.StoreOptions{PagedFeatures: o.PagedFeatures, PagedTopo: o.PagedTopo}
	policy, err := blockcache.ParsePolicy(o.CachePolicy)
	if err != nil {
		return so, err
	}
	if o.PagedFeatures {
		enc, err := featstore.ParseEncoding(o.FeatEncoding)
		if err != nil {
			return so, err
		}
		so.Feat = featstore.Options{
			Encoding: enc, PageRows: o.FeatPageRows,
			CacheBytes: int64(o.FeatCacheMB) << 20, Policy: policy,
		}
	}
	if o.PagedTopo {
		so.Topo = topostore.Options{
			PageEdges: o.TopoPageEdges, CacheBytes: int64(o.TopoCacheMB) << 20, Policy: policy,
		}
	}
	return so, nil
}

// TestStoreOptionsTranslation: the benchmark's train_ooc option set
// translates to the store options train.New built for it before the
// translation moved; every other combination agrees with the frozen copy;
// bad spellings fail with the parsers' own errors.
func TestStoreOptionsTranslation(t *testing.T) {
	ooc := Options{
		PagedFeatures: true, PagedTopo: true,
		FeatPageRows: 16, FeatCacheMB: 14, TopoCacheMB: 5,
		PrefetchPages: 16, CachePolicy: "lru",
	}
	got, err := ooc.StoreOptions()
	if err != nil {
		t.Fatal(err)
	}
	want := core.StoreOptions{
		PagedFeatures: true,
		Feat:          featstore.Options{Encoding: featstore.Raw, PageRows: 16, CacheBytes: 14 << 20, Policy: blockcache.PolicyLRU},
		PagedTopo:     true,
		Topo:          topostore.Options{CacheBytes: 5 << 20, Policy: blockcache.PolicyLRU},
	}
	if got != want {
		t.Errorf("train_ooc options translate to %+v, want %+v", got, want)
	}
	for _, o := range []Options{
		{},
		{CachePolicy: "admit"},
		{PagedFeatures: true, FeatEncoding: "float32", FeatPageRows: 64, FeatCacheMB: 3, CachePolicy: "admit"},
		{PagedFeatures: true, FeatEncoding: "q8"}, // a retired lossy format
		{PagedTopo: true, TopoPageEdges: 512, TopoCacheMB: 1},
		{FeatEncoding: "bogus"}, // unread while features are resident
		{CachePolicy: "bogus"},
		{PagedFeatures: true, FeatEncoding: "bogus"},
		{PagedFeatures: true, FeatEncoding: "bogus", CachePolicy: "bogus"},
	} {
		got, gotErr := o.StoreOptions()
		want, wantErr := legacyStoreOptions(o)
		if got != want || (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Errorf("%+v: StoreOptions() = %+v, %v; the frozen copy gives %+v, %v", o, got, gotErr, want, wantErr)
		}
	}
	if _, err := (Options{CachePolicy: "bogus"}).StoreOptions(); err == nil {
		t.Error("a bad cache policy was accepted")
	}
	if _, err := (Options{PagedFeatures: true, FeatEncoding: "bogus"}).StoreOptions(); err == nil {
		t.Error("a bad feature encoding was accepted")
	}
}
