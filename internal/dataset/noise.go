package dataset

import "math"

// noiseStream is a splitmix64 stream: its whole state is one counter, so
// opening a stream per feature row costs nothing (no seeding pass, no
// heap allocation) — the reason FeatureGen can regenerate any row on
// demand for the price of the values it draws.
type noiseStream uint64

func (s *noiseStream) next() uint64 {
	*s += noiseStream(gamma1)
	return mix64(uint64(*s))
}

// uniformOpen returns a draw in (0, 1], safe under math.Log.
func (s *noiseStream) uniformOpen() float64 { return 1 - uniform(s.next()) }

// normal returns a standard Gaussian draw by the Marsaglia-Tsang ziggurat
// (the construction math/rand uses): one hash and two table reads on the
// ~98.8 % fast path.
func (s *noiseStream) normal() float64 {
	for {
		j := int32(s.next() >> 32)
		i := j & (zigLayers - 1)
		x := float64(j) * zig.w[i]
		a := j
		if a < 0 {
			a = -a
		}
		if uint32(a) < zig.k[i] {
			return x
		}
		if i == 0 {
			// Base strip: sample the tail beyond zigR.
			for {
				x = -math.Log(s.uniformOpen()) / zigR
				y := -math.Log(s.uniformOpen())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return zigR + x
			}
			return -(zigR + x)
		}
		if zig.f[i]+s.uniformOpen()*(zig.f[i-1]-zig.f[i]) < math.Exp(-.5*x*x) {
			return x
		}
	}
}

const (
	zigLayers = 128
	zigR      = 3.442619855899      // start of the tail strip
	zigV      = 9.91256303526217e-3 // area of each layer
)

// zig holds the ziggurat layer tables, computed once at start-up.
var zig = newZiggurat()

type ziggurat struct {
	k    [zigLayers]uint32
	w, f [zigLayers]float64
}

func newZiggurat() *ziggurat {
	const m1 = 1 << 31
	z := &ziggurat{}
	dn, tn := zigR, zigR
	q := zigV / math.Exp(-.5*dn*dn)
	z.k[0] = uint32(dn / q * m1)
	z.w[0] = q / m1
	z.w[zigLayers-1] = dn / m1
	z.f[0] = 1
	z.f[zigLayers-1] = math.Exp(-.5 * dn * dn)
	for i := zigLayers - 2; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(zigV/dn+math.Exp(-.5*dn*dn)))
		z.k[i+1] = uint32(dn / tn * m1)
		tn = dn
		z.f[i] = math.Exp(-.5 * dn * dn)
		z.w[i] = dn / m1
	}
	return z
}
