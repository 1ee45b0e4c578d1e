package dataset

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"testing"
)

// allocatedBy returns the bytes f allocates (the TotalAlloc delta).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadRefusesOversizedPrefix: a length prefix claims its block before a
// byte of it arrives and before the checksum is read. A valid header
// followed by an array, or a header block, that claims the most the format
// allows and then ends must be an error, not an allocation of that size.
func TestLoadRefusesOversizedPrefix(t *testing.T) {
	hdr, err := json.Marshal(fuzzSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		body func(w *bytes.Buffer)
	}{
		{"first array of 2^33 int64", func(w *bytes.Buffer) {
			if err := WriteBytes(w, hdr); err != nil {
				t.Fatal(err)
			}
			binary.Write(w, binary.LittleEndian, uint64(1<<33))
		}},
		{"header block of 2^34 bytes", func(w *bytes.Buffer) {
			binary.Write(w, binary.LittleEndian, uint64(1<<34))
			w.Write(hdr)
		}},
	} {
		var file bytes.Buffer
		file.WriteString(ioMagic)
		binary.Write(&file, binary.LittleEndian, ioVersion)
		c.body(&file)
		var loadErr error
		n := allocatedBy(func() { _, loadErr = Load(bytes.NewReader(file.Bytes())) })
		if loadErr == nil {
			t.Errorf("%s: a file that ends after the prefix loaded", c.name)
		}
		t.Logf("%s: %v after %d KiB allocated", c.name, loadErr, n>>10)
		if n >= 16<<20 {
			t.Errorf("%s: Load allocated %d MiB before failing", c.name, n>>20)
		}
	}
}

// fuzzSpec is a dataset small enough to fuzz its encoding: a few hundred
// bytes per section.
func fuzzSpec() Spec {
	return Spec{
		Name: "fuzz", Nodes: 12, Edges: 20, FeatDim: 3, NumClasses: 2,
		LabelRatio: 1, TrainFrac: 0.5, ValFrac: 0.25,
		ZipfS: 1.5, Homophily: 0.5, NoiseSigma: 1, Seed: 5,
	}
}

// loadAllocBound is the most Load may allocate reading n bytes: an array
// grows by doubling only as its bytes arrive (at most four bytes allocated
// per byte read), each array's chunk buffer is at most its payload or one
// chunk for the array the input ends in, and a fixed allowance covers the
// reader's buffer, the header's decode and the Dataset itself.
func loadAllocBound(n int) uint64 {
	return uint64(5*n) + readChunk + 64<<10
}

// saveAllocBound is what Save may allocate whatever the dataset's size: its
// one-chunk encoding buffer, the bufio writer's buffer and the JSON header.
const saveAllocBound = 2 * readChunk

// sameDataset reports whether a and b hold the same spec and arrays, feature
// bits included (a NaN feature is equal to itself).
func sameDataset(a, b *Dataset) bool {
	return a.Spec == b.Spec && a.Graph.N == b.Graph.N &&
		slices.Equal(a.Graph.RowPtr, b.Graph.RowPtr) && slices.Equal(a.Graph.Col, b.Graph.Col) &&
		slices.Equal(a.Train, b.Train) && slices.Equal(a.Val, b.Val) && slices.Equal(a.Test, b.Test) &&
		slices.Equal(a.Labels, b.Labels) &&
		slices.EqualFunc(a.Feat, b.Feat, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// FuzzDatasetLoad searches the decoder over arbitrary files: every input is
// loaded as it is and again with its trailer set to the checksum of its
// body, so a mutation reaches the structure checks behind the checksum too.
// Load must never panic, must allocate no more than loadAllocBound of the
// input, and a dataset it returns must pass checkStructure and come back
// unchanged through Save and Load. The seeds are a small generated dataset,
// its truncation at every section boundary and a byte flipped in every
// section.
func FuzzDatasetLoad(f *testing.F) {
	d, err := Generate(fuzzSpec())
	if err != nil {
		f.Fatal(err)
	}
	var enc bytes.Buffer
	if err := d.Save(&enc); err != nil {
		f.Fatal(err)
	}
	raw := enc.Bytes()
	hdr, err := json.Marshal(d.Spec)
	if err != nil {
		f.Fatal(err)
	}
	// Section boundaries: magic, version, the header block, then each
	// array's prefix and payload, then the trailer.
	bounds := []int{len(ioMagic), len(ioMagic) + 4}
	at := bounds[1] + 8 + len(hdr)
	bounds = append(bounds, bounds[1]+8, at)
	for _, size := range []int{
		8 * len(d.Graph.RowPtr), 8 * len(d.Graph.Col), 8 * len(d.Train), 8 * len(d.Val), 8 * len(d.Test),
		4 * len(d.Feat), 4 * len(d.Labels),
	} {
		bounds = append(bounds, at+8, at+8+size)
		at += 8 + size
	}
	if at+4 != len(raw) {
		f.Fatalf("sections end at %d, the encoding at %d", at+4, len(raw))
	}
	f.Add(raw)
	for i, b := range bounds {
		f.Add(raw[:b])
		flip := bytes.Clone(raw)
		if i > 0 {
			b = bounds[i-1] + (b-bounds[i-1])/2
		} else {
			b = 0
		}
		flip[b] ^= 0x40
		f.Add(flip)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(name string, data []byte) {
			var got *Dataset
			var loadErr error
			if n := allocatedBy(func() { got, loadErr = Load(bytes.NewReader(data)) }); n > loadAllocBound(len(data)) {
				t.Fatalf("%s: Load of %d bytes allocated %d", name, len(data), n)
			}
			if loadErr != nil {
				return
			}
			if err := got.checkStructure(); err != nil {
				t.Fatalf("%s: loaded a dataset that fails its structure check: %v", name, err)
			}
			var again bytes.Buffer
			if err := got.Save(&again); err != nil {
				t.Fatalf("%s: saving a loaded dataset: %v", name, err)
			}
			back, err := Load(&again)
			if err != nil {
				t.Fatalf("%s: reloading a saved dataset: %v", name, err)
			}
			if !sameDataset(got, back) {
				t.Fatalf("%s: Load(Save(d)) differs from d", name)
			}
		}
		check("as given", data)
		if len(data) >= len(ioMagic)+8 {
			fixed := bytes.Clone(data)
			body := fixed[len(ioMagic)+4 : len(fixed)-4]
			binary.LittleEndian.PutUint32(fixed[len(fixed)-4:], crc32.Checksum(body, crcTable))
			check("checksum fixed", fixed)
		}
	})
}
