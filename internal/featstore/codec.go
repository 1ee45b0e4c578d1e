// Package featstore is a paged, compressed, columnar feature store: the
// out-of-core backing for node features too large for the flat in-memory
// slab (ogbn-papers100M at full scale is ~57 GB of float32). Rows live in
// fixed-size pages encoded with one of three codecs; each GPU keeps a
// byte-budgeted LRU BlockCache of decoded-on-read pages in its HBM, and a
// page miss pays the Unified-Memory page-fault cost on the device's copy
// stream (the PR-3 dual-stream model), while a hit pays only local HBM.
//
// The raw encoding is bit-exact — training through the store produces
// losses bit-identical to the flat slab — while the float16 and 8-bit
// quantized encodings trade accuracy for a 2x/4x smaller page working set,
// opt-in and reported with accuracy deltas by the featstore ablation.
package featstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"wholegraph/internal/sim"
)

// Encoding selects the page codec.
type Encoding uint8

// The supported page encodings.
const (
	// Raw stores IEEE-754 float32 bits: 4 bytes/element, bit-exact.
	Raw Encoding = iota
	// Float16 truncates each float32 to its upper 16 bits (bfloat16-style:
	// sign, full 8-bit exponent, 7 mantissa bits): 2 bytes/element.
	Float16
	// Quant8 linearly quantizes each element to 8 bits against the page's
	// min/max range: 1 byte/element.
	Quant8
)

// String names the encoding as the CLI flags spell it.
func (e Encoding) String() string {
	switch e {
	case Raw:
		return "raw"
	case Float16:
		return "f16"
	case Quant8:
		return "q8"
	}
	return fmt.Sprintf("Encoding(%d)", uint8(e))
}

// ParseEncoding resolves a CLI spelling of an encoding.
func ParseEncoding(s string) (Encoding, error) {
	switch s {
	case "raw", "float32", "":
		return Raw, nil
	case "f16", "float16", "bf16":
		return Float16, nil
	case "q8", "quant8", "int8":
		return Quant8, nil
	}
	return Raw, fmt.Errorf("featstore: unknown encoding %q (want raw, f16 or q8)", s)
}

// BytesPerElem returns the encoded element size.
func (e Encoding) BytesPerElem() int {
	switch e {
	case Float16:
		return 2
	case Quant8:
		return 1
	}
	return 4
}

// decodeFLOPsPerElem is the arithmetic charged per decoded element: raw is
// a pure copy; f16 is one shift/widen; q8 is a multiply-add against the
// page range.
func (e Encoding) decodeFLOPsPerElem() float64 {
	switch e {
	case Float16:
		return 1
	case Quant8:
		return 2
	}
	return 0
}

// page is one page of a blockcache.Table: PageRows (or fewer, for the
// table's last page) rows of dim elements each, whose encoded payload is
// produced on first touch (Store.row): a Raw or Float16 page one row at a
// time, a Quant8 page whole, since its codec needs the page's min/max. Row
// values are a pure function of the source, so what a row decodes to never
// depends on touch order or cache history.
type page struct {
	id   int32
	data []byte
	// have marks the rows whose bytes in data are valid (bit r = row r).
	have []uint64
	// minV and maxV bound the page's values once the whole page has been
	// materialized; Quant8 decodes against them.
	minV, maxV float32
	rows       int
	// rowBytes is the encoded size of one row, fixed for the page's life.
	rowBytes int
	ready    sim.Event
}

// pageMetaBytes is the per-page metadata charged on top of the payload.
const pageMetaBytes = 8

// CacheBytes implements blockcache.Block: encoded payload plus page metadata.
func (p *page) CacheBytes() int64 { return int64(len(p.data)) + pageMetaBytes }

// ReadyEvent implements blockcache.Page.
func (p *page) ReadyEvent() *sim.Event { return &p.ready }

// Reset implements blockcache.Page: rows rows, none materialized.
func (p *page) Reset(id int32, rows int) {
	dataBytes := rows * p.rowBytes
	if cap(p.data) < dataBytes {
		p.data = make([]byte, dataBytes)
	}
	words := (rows + 63) / 64
	if cap(p.have) < words {
		p.have = make([]uint64, words)
	}
	*p = page{id: id, rows: rows, rowBytes: p.rowBytes, data: p.data[:dataBytes], have: p.have[:words]}
	clear(p.have)
}

func (p *page) has(r int) bool { return p.have[r>>6]&(1<<(r&63)) != 0 }

// encodeAll materializes the whole page from src (rows*dim float32s,
// row-major), recording the value range.
func (p *page) encodeAll(enc Encoding, src []float32) {
	p.minV, p.maxV = 0, 0
	if len(src) > 0 {
		p.minV, p.maxV = src[0], src[0]
		for _, x := range src {
			if x < p.minV {
				p.minV = x
			}
			if x > p.maxV {
				p.maxV = x
			}
		}
	}
	encode(enc, src, p.data, p.minV, p.maxV)
	for i := range p.have {
		p.have[i] = ^uint64(0)
	}
}

// encodeRow materializes row r from its dim source values. Not for
// Quant8, whose bytes depend on the whole page's range.
func (p *page) encodeRow(enc Encoding, r int, src []float32) {
	n := len(src) * enc.BytesPerElem()
	encode(enc, src, p.data[r*n:(r+1)*n], 0, 0)
	p.have[r>>6] |= 1 << (r & 63)
}

// encode writes src's elements to dst with enc (Quant8 against the range
// [minV, maxV]). The output is deterministic in its arguments alone, so
// an evicted page re-encodes to identical bytes — decoded values never
// depend on cache history.
func encode(enc Encoding, src []float32, dst []byte, minV, maxV float32) {
	switch enc {
	case Raw:
		for i, x := range src {
			binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(x))
		}
	case Float16:
		for i, x := range src {
			h := uint16(math.Float32bits(x) >> 16)
			dst[2*i] = byte(h)
			dst[2*i+1] = byte(h >> 8)
		}
	case Quant8:
		scale := float64(maxV) - float64(minV)
		if scale > 0 {
			inv := 255 / scale
			for i, x := range src {
				q := math.Round((float64(x) - float64(minV)) * inv)
				dst[i] = byte(q)
			}
		} else {
			clear(dst) // degenerate page (all equal): zeros decode to minV
		}
	default:
		panic(fmt.Sprintf("featstore: encode: %v", enc))
	}
}

// decodeRow decodes the materialized row r (within the page) into
// dst[:dim].
func (p *page) decodeRow(enc Encoding, r, dim int, dst []float32) {
	switch enc {
	case Raw:
		row := p.data[4*r*dim : 4*(r+1)*dim]
		for j := range dst[:dim] {
			dst[j] = math.Float32frombits(binary.LittleEndian.Uint32(row[4*j:]))
		}
	case Float16:
		base := 2 * r * dim
		for j := 0; j < dim; j++ {
			o := base + 2*j
			h := uint32(p.data[o]) | uint32(p.data[o+1])<<8
			dst[j] = math.Float32frombits(h << 16)
		}
	case Quant8:
		base := r * dim
		step := (float64(p.maxV) - float64(p.minV)) / 255
		for j := 0; j < dim; j++ {
			dst[j] = float32(float64(p.minV) + float64(p.data[base+j])*step)
		}
	default:
		panic(fmt.Sprintf("featstore: decodeRow: %v", enc))
	}
}
