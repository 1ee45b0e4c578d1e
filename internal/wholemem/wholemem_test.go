package wholemem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wholegraph/internal/sim"
)

func testComm(t *testing.T) (*sim.Machine, *Comm) {
	t.Helper()
	m := sim.NewMachine(sim.DGXA100(1))
	c, err := NewComm(m.NodeDevs(0))
	if err != nil {
		t.Fatal(err)
	}
	return m, c
}

func TestNewCommRejectsCrossNode(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(2))
	if _, err := NewComm(m.Devs); err == nil {
		t.Error("cross-node communicator accepted")
	}
	if _, err := NewComm(nil); err == nil {
		t.Error("empty communicator accepted")
	}
}

func TestAllocPartition(t *testing.T) {
	_, c := testComm(t)
	mem := Alloc[float32](c, 1000)
	if mem.Len() != 1000 {
		t.Fatalf("len = %d", mem.Len())
	}
	if mem.Bytes() != 4000 {
		t.Fatalf("bytes = %d", mem.Bytes())
	}
	total := int64(0)
	for r := 0; r < c.Size(); r++ {
		total += int64(len(mem.Shard(r)))
		if mem.ShardStart(r) != int64(r)*125 {
			t.Errorf("shard %d start = %d, want %d", r, mem.ShardStart(r), r*125)
		}
	}
	if total != 1000 {
		t.Fatalf("shards cover %d elements", total)
	}
}

func TestAllocChargesSetup(t *testing.T) {
	m, c := testComm(t)
	Alloc[float32](c, 1<<28) // 1 GB total
	// The paper: setup takes tens to ~200 ms. Our 1 GB allocation should
	// land in tens of milliseconds (malloc + IPC exchange + barrier).
	tm := m.MaxTime()
	if tm < 1e-3 || tm > 0.3 {
		t.Errorf("setup time = %g s, want tens of ms", tm)
	}
}

func TestRankOfAndGetSet(t *testing.T) {
	_, c := testComm(t)
	mem := Alloc[int64](c, 777) // uneven split
	for i := int64(0); i < 777; i++ {
		mem.Set(i, i*3)
	}
	for i := int64(0); i < 777; i++ {
		if got := mem.Get(i); got != i*3 {
			t.Fatalf("Get(%d) = %d, want %d", i, got, i*3)
		}
	}
	if mem.RankOf(0) != 0 {
		t.Error("RankOf(0) != 0")
	}
	if mem.RankOf(776) != c.Size()-1 {
		t.Errorf("RankOf(last) = %d", mem.RankOf(776))
	}
}

func TestAllocShardedUneven(t *testing.T) {
	_, c := testComm(t)
	sizes := []int64{10, 0, 5, 100, 1, 0, 7, 2}
	mem := AllocSharded[int32](c, sizes)
	if mem.Len() != 125 {
		t.Fatalf("len = %d, want 125", mem.Len())
	}
	// Global index 10 must land at the start of rank 2 (rank 1 is empty).
	if r := mem.RankOf(10); r != 2 {
		t.Errorf("RankOf(10) = %d, want 2", r)
	}
	if r := mem.RankOf(124); r != 7 {
		t.Errorf("RankOf(124) = %d, want 7", r)
	}
	mem.Set(10, 42)
	if mem.Shard(2)[0] != 42 {
		t.Error("Set did not land in rank 2 shard")
	}
}

func TestGatherRows(t *testing.T) {
	m, c := testComm(t)
	const n, dim = 64, 4
	mem := Alloc[float32](c, n*dim)
	for i := int64(0); i < n*dim; i++ {
		mem.Set(i, float32(i))
	}
	m.Reset()
	d := c.Devs[3]
	rows := []int64{0, 63, 17, 17, 5}
	dst := make([]float32, len(rows)*dim)
	dt := mem.GatherRows(d, rows, dim, dst, "gather")
	for i, row := range rows {
		for j := 0; j < dim; j++ {
			want := float32(row*dim + int64(j))
			if dst[i*dim+j] != want {
				t.Fatalf("dst[%d,%d] = %g, want %g", i, j, dst[i*dim+j], want)
			}
		}
	}
	if dt <= 0 || d.Now() != dt {
		t.Errorf("gather time %g, clock %g", dt, d.Now())
	}
	if d.Stats.RemoteBytes == 0 {
		t.Error("no remote traffic charged for cross-rank gather")
	}
}

func TestGatherElems(t *testing.T) {
	m, c := testComm(t)
	mem := Alloc[int64](c, 256)
	for i := int64(0); i < 256; i++ {
		mem.Set(i, 1000+i)
	}
	m.Reset()
	d := c.Devs[0]
	idx := []int64{255, 0, 128, 9}
	dst := make([]int64, 4)
	mem.GatherElems(d, idx, dst, "g")
	for i, gi := range idx {
		if dst[i] != 1000+gi {
			t.Fatalf("elem %d = %d", gi, dst[i])
		}
	}

	// A run of consecutive indices that starts inside shard 0, spans all
	// of shards 1-2 and ends inside shard 3 reads every element in order.
	small := Alloc[int32](c, 80) // 10 per shard
	for i := int64(0); i < 80; i++ {
		small.Set(i, int32(i))
	}
	run := make([]int64, 35)
	for i := range run {
		run[i] = 5 + int64(i)
	}
	got := make([]int32, len(run))
	small.GatherElems(c.Devs[2], run, got, "r")
	for i, gi := range run {
		if got[i] != int32(gi) {
			t.Fatalf("got[%d] = %d, want %d", i, got[i], gi)
		}
	}
}

func TestRemoteCostExceedsLocal(t *testing.T) {
	m, c := testComm(t)
	const n, dim = 8000, 128
	mem := Alloc[float32](c, n*dim)
	d := c.Devs[0]
	dst := make([]float32, 1000*dim)

	// All-local rows (rank 0 holds the first n/8 rows).
	localRows := make([]int64, 1000)
	for i := range localRows {
		localRows[i] = int64(i % 999)
	}
	m.Reset()
	tLocal := mem.GatherRows(d, localRows, dim, dst, "l")

	// All-remote rows (held by rank 7).
	remoteRows := make([]int64, 1000)
	for i := range remoteRows {
		remoteRows[i] = int64(7000 + i%999)
	}
	m.Reset()
	tRemote := mem.GatherRows(d, remoteRows, dim, dst, "r")
	if tRemote <= tLocal {
		t.Errorf("remote gather (%g) not slower than local (%g)", tRemote, tLocal)
	}
}

func TestSmallSegmentsSlower(t *testing.T) {
	// Gathering the same bytes with 4-byte segments must be slower than
	// with 512-byte segments (Figure 8 behaviour).
	m, c := testComm(t)
	mem := Alloc[float32](c, 1<<20)
	d := c.Devs[0]
	nElems := 1 << 16
	idx := make([]int64, nElems)
	rng := rand.New(rand.NewSource(1))
	for i := range idx {
		idx[i] = rng.Int63n(mem.Len())
	}
	m.Reset()
	small := mem.GatherElems(d, idx, make([]float32, nElems), "s")
	rows := make([]int64, nElems/128)
	for i := range rows {
		rows[i] = rng.Int63n(mem.Len()/128 - 1)
	}
	m.Reset()
	big := mem.GatherRows(d, rows, 128, make([]float32, nElems), "b")
	if small <= big {
		t.Errorf("4B-segment gather (%g) not slower than 512B-segment (%g)", small, big)
	}
}

func TestGatherPanicsOffComm(t *testing.T) {
	m2 := sim.NewMachine(sim.DGXA100(2))
	c, err := NewComm(m2.NodeDevs(0))
	if err != nil {
		t.Fatal(err)
	}
	mem := Alloc[float32](c, 100)
	defer func() {
		if recover() == nil {
			t.Error("gather from non-member device did not panic")
		}
	}()
	mem.GatherElems(m2.NodeDevs(1)[0], []int64{0}, make([]float32, 1), "x")
}

func TestFillFrom(t *testing.T) {
	_, c := testComm(t)
	mem := Alloc[float32](c, 100)
	src := make([]float32, 100)
	for i := range src {
		src[i] = float32(i) * 0.5
	}
	mem.FillFrom(src)
	for i := int64(0); i < 100; i++ {
		if mem.Get(i) != float32(i)*0.5 {
			t.Fatalf("FillFrom mismatch at %d", i)
		}
	}
}

func TestRankOfProperty(t *testing.T) {
	_, c := testComm(t)
	mem := AllocSharded[int64](c, []int64{3, 0, 0, 17, 1, 0, 40, 9})
	f := func(raw uint32) bool {
		i := int64(raw) % mem.Len()
		r := mem.RankOf(i)
		// The index must lie inside rank r's [start, start+len) range.
		start := mem.ShardStart(r)
		return i >= start && i < start+int64(len(mem.Shard(r)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGetSetRoundTripProperty(t *testing.T) {
	_, c := testComm(t)
	mem := Alloc[int64](c, 509) // prime => uneven shards
	f := func(raw uint32, v int64) bool {
		i := int64(raw) % mem.Len()
		mem.Set(i, v)
		return mem.Get(i) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStorageKinds(t *testing.T) {
	m, c := testComm(t)
	const n, dim = 1 << 14, 128
	kinds := []Kind{DeviceP2P, DeviceUM, PinnedHost}
	names := []string{"device-p2p", "device-um", "pinned-host"}
	times := make([]float64, len(kinds))
	rng := rand.New(rand.NewSource(5))
	rows := make([]int64, 2048)
	for i := range rows {
		rows[i] = rng.Int63n(n - 1)
	}
	for i, k := range kinds {
		mem := AllocKind[float32](c, n*dim, k)
		if mem.Kind() != k || k.String() != names[i] {
			t.Fatalf("kind bookkeeping wrong for %v", k)
		}
		for j := int64(0); j < 256; j++ {
			mem.Set(j, float32(j))
		}
		m.Reset()
		dst := make([]float32, len(rows)*dim)
		times[i] = mem.GatherRows(c.Devs[0], rows, dim, dst, "k")
		// Data correctness is kind-independent.
		if dst[0] != float32(rows[0]*dim) && rows[0]*dim < 256 {
			t.Fatal("gather returned wrong data")
		}
	}
	// The paper's ordering: peer access < UM < host over PCIe.
	if !(times[0] < times[1] && times[1] < times[2]) {
		t.Errorf("gather times not ordered P2P < UM < pinned-host: %v", times)
	}
}

func TestWithKindRelabels(t *testing.T) {
	_, c := testComm(t)
	mem := Alloc[int64](c, 64)
	if mem.Kind() != DeviceP2P {
		t.Fatal("default kind should be DeviceP2P")
	}
	if got := mem.WithKind(PinnedHost).Kind(); got != PinnedHost {
		t.Fatalf("WithKind did not stick: %v", got)
	}
}

// TestStagingTwinGathersAsItsDevice: a staging twin resolves to its
// device's rank, so a gather through it moves the same data and records the
// kernel the device would have been charged — and a twin of a device
// outside the communicator is still outside it.
func TestStagingTwinGathersAsItsDevice(t *testing.T) {
	m, c := testComm(t)
	const n, dim = 64, 4
	mem := Alloc[float32](c, n*dim)
	for i := int64(0); i < n*dim; i++ {
		mem.Set(i, float32(i))
	}
	m.Reset()
	d := c.Devs[3]
	twin := d.StagingTwin()
	var list []sim.Charge
	twin.Record(&list)
	if got := c.RankOfDevice(twin); got != 3 {
		t.Fatalf("twin of rank 3 resolves to rank %d", got)
	}
	rows := []int64{0, 63, 17, 17, 5, 26} // rows 24..31 are local to rank 3
	want, got := make([]float32, len(rows)*dim), make([]float32, len(rows)*dim)
	dtTwin := mem.GatherRows(twin, rows, dim, got, "gather")
	if d.Now() != 0 || d.Stats.Kernels != 0 {
		t.Fatal("gather through the twin charged the device")
	}
	dt := mem.GatherRows(d, rows, dim, want, "gather")
	if dtTwin != dt {
		t.Errorf("twin gather priced at %g, device gather at %g", dtTwin, dt)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dst[%d] = %g through the twin, %g on the device", i, got[i], want[i])
		}
	}
	direct := d.Stats
	m.Reset()
	d.Issue(list, 0)
	if d.Stats != direct || d.Now() != dt {
		t.Errorf("issuing the recorded gather: stats %+v clock %g, direct %+v clock %g", d.Stats, d.Now(), direct, dt)
	}

	m2 := sim.NewMachine(sim.DGXA100(2))
	if r := c.RankOfDevice(m2.NodeDevs(1)[0].StagingTwin()); r != -1 {
		t.Errorf("twin of a foreign device resolves to rank %d", r)
	}
}
