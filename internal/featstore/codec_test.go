package featstore

import (
	"math"
	"math/rand"
	"testing"
)

// encodePage materializes a whole page from src, as a Quant8 first touch
// does.
func encodePage(enc Encoding, src []float32, rows, dim int) *page {
	p := &page{rowBytes: dim * enc.BytesPerElem()}
	p.Reset(0, rows)
	p.encodeAll(enc, src)
	return p
}

func randMatrix(rng *rand.Rand, rows, dim int) []float32 {
	m := make([]float32, rows*dim)
	for i := range m {
		// Mix magnitudes and signs, with occasional exact zeros and
		// denormal-ish values, to stress the codecs.
		switch rng.Intn(8) {
		case 0:
			m[i] = 0
		case 1:
			m[i] = float32(rng.NormFloat64()) * 1e-20
		case 2:
			m[i] = float32(rng.NormFloat64()) * 1e6
		default:
			m[i] = float32(rng.NormFloat64())
		}
	}
	return m
}

// TestRawRoundtripBitExact: the raw codec must reproduce the source bits
// exactly, across random shapes including partial and tiny pages.
func TestRawRoundtripBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		rows := 1 + rng.Intn(40)
		dim := 1 + rng.Intn(24)
		src := randMatrix(rng, rows, dim)
		pg := encodePage(Raw, src, rows, dim)
		dst := make([]float32, dim)
		for r := 0; r < rows; r++ {
			pg.decodeRow(Raw, r, dim, dst)
			for j := 0; j < dim; j++ {
				want := src[r*dim+j]
				if math.Float32bits(dst[j]) != math.Float32bits(want) {
					t.Fatalf("trial %d row %d col %d: %x != %x",
						trial, r, j, math.Float32bits(dst[j]), math.Float32bits(want))
				}
			}
		}
	}
}

// TestFloat16Roundtrip: truncation to the upper 16 bits keeps sign and
// exponent, bounds relative error by the dropped 7 mantissa bits, and is
// idempotent (re-encoding a decoded value reproduces it exactly).
func TestFloat16Roundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		rows := 1 + rng.Intn(40)
		dim := 1 + rng.Intn(24)
		src := randMatrix(rng, rows, dim)
		pg := encodePage(Float16, src, rows, dim)
		dec := make([]float32, rows*dim)
		for r := 0; r < rows; r++ {
			pg.decodeRow(Float16, r, dim, dec[r*dim:(r+1)*dim])
		}
		for i, want := range src {
			got := dec[i]
			if want == 0 {
				if got != 0 {
					t.Fatalf("zero decoded to %g", got)
				}
				continue
			}
			rel := math.Abs(float64(got-want)) / math.Abs(float64(want))
			if rel > 1.0/128 { // 7 mantissa bits dropped: error < 2^-7
				t.Fatalf("trial %d elem %d: %g -> %g (rel err %g)", trial, i, want, got, rel)
			}
		}
		// Idempotence: encode(decode(x)) == decode(x) bit-exactly.
		pg2 := encodePage(Float16, dec, rows, dim)
		dst := make([]float32, dim)
		for r := 0; r < rows; r++ {
			pg2.decodeRow(Float16, r, dim, dst)
			for j := 0; j < dim; j++ {
				if math.Float32bits(dst[j]) != math.Float32bits(dec[r*dim+j]) {
					t.Fatalf("f16 re-encode not idempotent at (%d,%d)", r, j)
				}
			}
		}
	}
}

// TestQuant8Roundtrip: linear quantization error is bounded by half a step
// of the page range, and degenerate (constant) pages decode exactly.
func TestQuant8Roundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		rows := 1 + rng.Intn(40)
		dim := 1 + rng.Intn(24)
		src := make([]float32, rows*dim)
		for i := range src {
			src[i] = float32(rng.NormFloat64())
		}
		pg := encodePage(Quant8, src, rows, dim)
		step := (float64(pg.maxV) - float64(pg.minV)) / 255
		dst := make([]float32, dim)
		for r := 0; r < rows; r++ {
			pg.decodeRow(Quant8, r, dim, dst)
			for j := 0; j < dim; j++ {
				diff := math.Abs(float64(dst[j]) - float64(src[r*dim+j]))
				if diff > step/2+1e-7 {
					t.Fatalf("trial %d (%d,%d): err %g > half-step %g", trial, r, j, diff, step/2)
				}
			}
		}
	}
	// Constant page: scale collapses, everything decodes to the value.
	src := []float32{2.5, 2.5, 2.5, 2.5}
	pg := encodePage(Quant8, src, 2, 2)
	dst := make([]float32, 2)
	for r := 0; r < 2; r++ {
		pg.decodeRow(Quant8, r, 2, dst)
		if dst[0] != 2.5 || dst[1] != 2.5 {
			t.Fatalf("constant page decoded to %v", dst)
		}
	}
}

// TestZeroRowPage: an empty page encodes and reports zero bytes.
func TestZeroRowPage(t *testing.T) {
	for _, enc := range []Encoding{Raw, Float16, Quant8} {
		pg := encodePage(enc, nil, 0, 16)
		if len(pg.data) != 0 || pg.rows != 0 {
			t.Errorf("%v: zero-row page has %d bytes, %d rows", enc, len(pg.data), pg.rows)
		}
	}
}

func TestParseEncoding(t *testing.T) {
	cases := map[string]Encoding{
		"raw": Raw, "": Raw, "float32": Raw,
		"f16": Float16, "float16": Float16, "bf16": Float16,
		"q8": Quant8, "quant8": Quant8, "int8": Quant8,
	}
	for in, want := range cases {
		got, err := ParseEncoding(in)
		if err != nil || got != want {
			t.Errorf("ParseEncoding(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseEncoding("zstd"); err == nil {
		t.Error("unknown encoding accepted")
	}
	if Raw.BytesPerElem() != 4 || Float16.BytesPerElem() != 2 || Quant8.BytesPerElem() != 1 {
		t.Error("wrong encoded element sizes")
	}
}

// FuzzPageCodec drives the three codecs over arbitrary float32 bit patterns
// — NaN payloads, ±Inf, ±0, denormals — and page shapes. Whatever the bits,
// a row the store materializes on demand decodes exactly as the same row of
// a whole-page encode; Raw round-trips every bit, Float16 is the documented
// truncation to the upper 16 bits, and Quant8 of an all-finite page lands
// within half a quantization step.
func FuzzPageCodec(f *testing.F) {
	le := func(vals ...uint32) []byte {
		var b []byte
		for _, v := range vals {
			b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		return b
	}
	f.Add(le(0x3f800000, 0xbf800000, 0x40490fdb, 0x00000000), uint8(5), uint8(3), uint8(2))
	f.Add(le(0x7fc00001, 0xffc12345, 0x7f800000, 0xff800000, 0x80000000), uint8(7), uint8(2), uint8(3)) // NaN payloads, ±Inf, -0
	f.Add(le(0x00000001, 0x807fffff, 0x00800000, 0x7f7fffff, 0xff7fffff), uint8(9), uint8(4), uint8(1)) // denormals, extremes
	f.Add(le(0x42280000), uint8(3), uint8(1), uint8(8))                                                 // constant page
	f.Fuzz(func(t *testing.T, raw []byte, nRows, nDim, nPage uint8) {
		rows, dim, pageRows := 1+int(nRows)%40, 1+int(nDim)%9, 1+int(nPage)%16
		if len(raw) < 4 {
			raw = append(raw, 0, 0, 0, 0)
		}
		src := &SliceSource{Data: make([]float32, rows*dim), D: dim}
		for i := range src.Data {
			o := 4 * (i % (len(raw) / 4))
			bits := uint32(raw[o]) | uint32(raw[o+1])<<8 | uint32(raw[o+2])<<16 | uint32(raw[o+3])<<24
			src.Data[i] = math.Float32frombits(bits + uint32(i/(len(raw)/4))) // later repeats differ
		}
		got, want := make([]float32, dim), make([]float32, dim)
		for _, enc := range []Encoding{Raw, Float16, Quant8} {
			s, dev := newTestStore(t, src, Options{Encoding: enc, PageRows: pageRows})
			for k := 0; k < rows; k++ {
				row := int64(k*7+3) % int64(rows) // out of order; repeats when 7 | rows
				s.GatherRows(dev, []int64{row}, dim, got, "t")
				lo, hi := s.tab.Span(s.PageOf(row))
				pageSrc := src.Data[lo*int64(dim) : hi*int64(dim)]
				pg := encodePage(enc, pageSrc, int(hi-lo), dim)
				pg.decodeRow(enc, int(row-lo), dim, want)
				finite := true
				for _, x := range pageSrc {
					finite = finite && !math.IsNaN(float64(x)) && !math.IsInf(float64(x), 0)
				}
				step := (float64(pg.maxV) - float64(pg.minV)) / 255
				for j, x := range src.Data[row*int64(dim) : (row+1)*int64(dim)] {
					g, xb := math.Float32bits(got[j]), math.Float32bits(x)
					if g != math.Float32bits(want[j]) {
						t.Fatalf("%v row %d col %d: demand-materialized %#08x, whole-page encode %#08x", enc, row, j, g, math.Float32bits(want[j]))
					}
					switch {
					case enc == Raw && g != xb:
						t.Fatalf("raw row %d col %d: %#08x came back as %#08x", row, j, xb, g)
					case enc == Float16 && g != xb&0xffff0000:
						t.Fatalf("f16 row %d col %d: %#08x decoded to %#08x, want the upper 16 bits", row, j, xb, g)
					case enc == Quant8 && finite:
						// Half a step, plus the float32 rounding of the decoded value.
						ulp := math.Max(math.Abs(float64(got[j]))/(1<<23), math.SmallestNonzeroFloat32)
						if diff := math.Abs(float64(got[j]) - float64(x)); diff > step/2*(1+1e-9)+ulp {
							t.Fatalf("q8 row %d col %d: %g decoded to %g, off by %g > half a step %g", row, j, x, got[j], diff, step/2)
						}
					}
				}
			}
		}
	})
}
