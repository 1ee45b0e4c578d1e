package bench

import "testing"

func TestAblationFeatstore(t *testing.T) {
	rows, err := AblationFeatstore(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	byName := map[string]FeatstoreVariantRow{}
	for _, r := range rows {
		byName[r.Variant] = r
		if r.EpochTime <= 0 || len(r.Losses) == 0 {
			t.Errorf("%s: empty result %+v", r.Variant, r)
		}
	}
	if !byName["flat"].BitIdentical || !byName["paged/raw"].BitIdentical {
		t.Error("paged/raw losses not bit-identical to the flat slab")
	}
	if r := byName["paged/raw"]; r.HitRate <= 0 || r.EncodedBytes <= 0 {
		t.Errorf("paged/raw: cache stats missing: %+v", r)
	}
}

func TestFeatstoreFull(t *testing.T) {
	cfg := testCfg()
	res, err := FeatstoreFull(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes <= 0 || res.EpochTime <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.HitRate <= 0 || res.HitRate > 1 {
		t.Errorf("hit rate %v out of range", res.HitRate)
	}
	if res.ResidentBytes > res.CacheBudgetBytes {
		t.Errorf("resident %d over budget %d", res.ResidentBytes, res.CacheBudgetBytes)
	}
	if res.FlatSlabBytes != res.Nodes*128*4 {
		t.Errorf("flat slab %d for %d nodes", res.FlatSlabBytes, res.Nodes)
	}
	// Nothing is capped: the edge source realizes ~2x the requested pairs
	// as directed CSR entries (probabilistic degree rounding moves it a
	// little), and the paged topology store serves all of them.
	if res.EdgesStored < res.EdgesRequested || res.EdgesStored > res.EdgesRequested*3 {
		t.Errorf("stored edges %d implausible for %d requested pairs", res.EdgesStored, res.EdgesRequested)
	}
	if res.TopoBytes != res.EdgesStored*8 {
		t.Errorf("topo bytes %d, want %d", res.TopoBytes, res.EdgesStored*8)
	}
	if res.TopoHitRate <= 0 || res.TopoHitRate > 1 {
		t.Errorf("topo hit rate %v out of range", res.TopoHitRate)
	}
	if res.TopoResidentBytes > res.TopoCacheBytes {
		t.Errorf("topo resident %d over budget %d", res.TopoResidentBytes, res.TopoCacheBytes)
	}
}
