package dataset

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"wholegraph/internal/graph"
)

// Binary dataset serialization, so expensive generations (the larger scale
// factors take minutes) can be produced once with wggen and reloaded by the
// harness. Format v2: a magic string, a format version, then a JSON-encoded
// Spec header and the raw little-endian arrays with length prefixes, all
// covered by a trailing CRC-32C so a truncated or bit-flipped cache file
// fails loudly instead of deserializing garbage.

const (
	ioMagic = "WGDS"
	// ioVersion 2 added the CRC-32C trailer; v1 files (no checksum) are
	// rejected and must be regenerated.
	ioVersion = uint32(2)
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CRC32Writer wraps a writer and folds everything written into a running
// CRC-32C. Shared by the dataset format and the feature-store page spill.
type CRC32Writer struct {
	w   io.Writer
	sum uint32
}

// NewCRC32Writer starts a checksummed section on w.
func NewCRC32Writer(w io.Writer) *CRC32Writer { return &CRC32Writer{w: w} }

// Write implements io.Writer.
func (c *CRC32Writer) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.sum = crc32.Update(c.sum, crcTable, p[:n])
	return n, err
}

// Sum32 returns the checksum of everything written so far.
func (c *CRC32Writer) Sum32() uint32 { return c.sum }

// CRC32Reader wraps a reader and folds everything read into a running
// CRC-32C, for verifying a CRC32Writer trailer.
type CRC32Reader struct {
	r   io.Reader
	sum uint32
}

// NewCRC32Reader starts a checksummed section on r.
func NewCRC32Reader(r io.Reader) *CRC32Reader { return &CRC32Reader{r: r} }

// Read implements io.Reader.
func (c *CRC32Reader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.sum = crc32.Update(c.sum, crcTable, p[:n])
	return n, err
}

// Sum32 returns the checksum of everything read so far.
func (c *CRC32Reader) Sum32() uint32 { return c.sum }

// Save writes the dataset in the binary format.
func (d *Dataset) Save(w io.Writer) error {
	if d.Feat == nil && d.Gen != nil {
		return fmt.Errorf("dataset: %s is out-of-core (no feature slab); spill its feature store instead of saving", d.Spec.Name)
	}
	if d.Graph == nil {
		return fmt.Errorf("dataset: %s is out-of-core (no materialized CSR); the format stores adjacency explicitly", d.Spec.Name)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(ioMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, ioVersion); err != nil {
		return err
	}
	cw := NewCRC32Writer(bw)
	hdr, err := json.Marshal(d.Spec)
	if err != nil {
		return fmt.Errorf("dataset: encoding spec: %w", err)
	}
	if err := WriteBytes(cw, hdr); err != nil {
		return err
	}
	buf := make([]byte, readChunk)
	for _, arr := range [][]int64{d.Graph.RowPtr, d.Graph.Col, d.Train, d.Val, d.Test} {
		if err := writeArray(cw, arr, buf); err != nil {
			return err
		}
	}
	if err := writeArray(cw, d.Feat, buf); err != nil {
		return err
	}
	if err := writeArray(cw, d.Labels, buf); err != nil {
		return err
	}
	// Trailer: checksum of everything after the version word.
	if err := binary.Write(bw, binary.LittleEndian, cw.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reads a dataset written by Save, verifying the checksum trailer.
func Load(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(ioMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("dataset: reading magic: %w", err)
	}
	if string(magic) != ioMagic {
		return nil, fmt.Errorf("dataset: bad magic %q", magic)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	switch version {
	case ioVersion:
	case 1:
		return nil, fmt.Errorf("dataset: version 1 file predates the checksum trailer; regenerate it with wggen")
	default:
		return nil, fmt.Errorf("dataset: unsupported version %d", version)
	}
	cr := NewCRC32Reader(br)
	hdr, err := ReadBytes(cr)
	if err != nil {
		return nil, err
	}
	d := &Dataset{Graph: &graph.CSR{}}
	if err := json.Unmarshal(hdr, &d.Spec); err != nil {
		return nil, fmt.Errorf("dataset: decoding spec: %w", err)
	}
	for _, arr := range []*[]int64{&d.Graph.RowPtr, &d.Graph.Col, &d.Train, &d.Val, &d.Test} {
		if *arr, err = ReadSlice[int64](cr); err != nil {
			return nil, err
		}
	}
	if d.Feat, err = ReadSlice[float32](cr); err != nil {
		return nil, err
	}
	if d.Labels, err = ReadSlice[int32](cr); err != nil {
		return nil, err
	}
	sum := cr.Sum32()
	var want uint32
	if err := binary.Read(br, binary.LittleEndian, &want); err != nil {
		return nil, fmt.Errorf("dataset: reading checksum trailer: %w", err)
	}
	if sum != want {
		return nil, fmt.Errorf("dataset: checksum mismatch (file %08x, computed %08x): corrupt or truncated file", want, sum)
	}
	d.Graph.N = int64(len(d.Graph.RowPtr)) - 1
	if d.Graph.N < 0 || d.Graph.N != d.Spec.Nodes {
		return nil, fmt.Errorf("dataset: corrupt file: %d rowptr entries for %d nodes",
			len(d.Graph.RowPtr), d.Spec.Nodes)
	}
	if err := d.checkStructure(); err != nil {
		return nil, fmt.Errorf("dataset: corrupt file: %w", err)
	}
	return d, nil
}

// checkStructure checks what a checksum cannot: that the arrays describe a
// graph of N nodes. Row pointers rise from 0 to len(Col); every column entry
// and split ID is a node; the slab is empty or N rows of FeatDim; there is
// one label per node.
func (d *Dataset) checkStructure() error {
	g, n := d.Graph, d.Graph.N
	if g.RowPtr[0] != 0 || g.RowPtr[n] != int64(len(g.Col)) {
		return fmt.Errorf("RowPtr runs from %d to %d, want 0 to len(Col) = %d", g.RowPtr[0], g.RowPtr[n], len(g.Col))
	}
	for v := int64(0); v < n; v++ {
		if g.RowPtr[v+1] < g.RowPtr[v] {
			return fmt.Errorf("RowPtr[%d] = %d falls below RowPtr[%d] = %d", v+1, g.RowPtr[v+1], v, g.RowPtr[v])
		}
	}
	for _, a := range []struct {
		name string
		ids  []int64
	}{{"Col", g.Col}, {"Train", d.Train}, {"Val", d.Val}, {"Test", d.Test}} {
		for i, v := range a.ids {
			if v < 0 || v >= n {
				return fmt.Errorf("%s[%d] = %d outside [0, %d)", a.name, i, v, n)
			}
		}
	}
	if len(d.Feat) != 0 && int64(len(d.Feat)) != n*int64(d.Spec.FeatDim) {
		return fmt.Errorf("len(Feat) = %d, want 0 or N*FeatDim = %d", len(d.Feat), n*int64(d.Spec.FeatDim))
	}
	if int64(len(d.Labels)) != n {
		return fmt.Errorf("len(Labels) = %d, want N = %d", len(d.Labels), n)
	}
	return nil
}

// SaveFile writes the dataset to path.
func (d *Dataset) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a dataset from path.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// WriteBytes writes a length-prefixed byte block (the format's primitive;
// exported for the feature-store page spill, which shares the encoding).
func WriteBytes(w io.Writer, b []byte) error {
	if err := binary.Write(w, binary.LittleEndian, uint64(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// ReadBytes reads a block written by WriteBytes.
func ReadBytes(r io.Reader) ([]byte, error) {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > 1<<34 {
		return nil, fmt.Errorf("dataset: implausible block size %d", n)
	}
	return readArray[byte](r, n)
}

// Elem is the element set the binary format stores.
type Elem interface{ int64 | int32 | float32 }

// writeArray writes s as a length-prefixed little-endian array, encoding it
// through buf a chunk at a time, so writing allocates nothing the size of s.
func writeArray[T Elem](w io.Writer, s []T, buf []byte) error {
	if err := binary.Write(w, binary.LittleEndian, uint64(len(s))); err != nil {
		return err
	}
	var zero T
	size := binary.Size(zero)
	per := len(buf) / size
	for len(s) > 0 {
		k := min(len(s), per)
		b := buf[:k*size]
		encodeLE(b, s[:k])
		if _, err := w.Write(b); err != nil {
			return err
		}
		s = s[k:]
	}
	return nil
}

// ReadSlice reads an array written by writeArray.
func ReadSlice[T Elem](r io.Reader) ([]T, error) {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > 1<<33 {
		return nil, fmt.Errorf("dataset: implausible slice length %d", n)
	}
	return readArray[T](r, n)
}

// readChunk bounds what reading an array allocates ahead of its bytes. A
// length prefix is read before its payload and before the checksum can
// vouch for it, so a corrupt file may claim any length up to the caps; read
// a chunk at a time, it ends in an error at EOF instead of a fatal
// out-of-memory. Save encodes through one buffer of the same size.
const readChunk = 64 << 10

// readArray reads n little-endian elements a chunk at a time and decodes
// each chunk into a slice that grows (doubling, capped at n) only as the
// bytes arrive.
func readArray[T Elem | byte](r io.Reader, n uint64) ([]T, error) {
	var zero T
	size := uint64(binary.Size(zero))
	per := readChunk / size
	buf := make([]byte, min(n, per)*size)
	s := make([]T, 0)
	for done := uint64(0); done < n; {
		k := min(n-done, per)
		b := buf[:k*size]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("dataset: reading element %d of %d: %w", done, n, err)
		}
		if done+k > uint64(cap(s)) {
			grown := make([]T, done, min(n, max(2*uint64(cap(s)), done+k)))
			copy(grown, s)
			s = grown
		}
		s = s[:done+k]
		decodeLE(s[done:], b)
		done += k
	}
	return s, nil
}

// encodeLE encodes src into b little-endian, the inverse of decodeLE.
func encodeLE[T Elem](b []byte, src []T) {
	switch s := any(src).(type) {
	case []int64:
		for i, v := range s {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
		}
	case []int32:
		for i, v := range s {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
	case []float32:
		for i, v := range s {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
	}
}

// decodeLE decodes the little-endian elements in b into dst.
func decodeLE[T Elem | byte](dst []T, b []byte) {
	switch d := any(dst).(type) {
	case []byte:
		copy(d, b)
	case []int64:
		for i := range d {
			d[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
	case []int32:
		for i := range d {
			d[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
	case []float32:
		for i := range d {
			d[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
	}
}
