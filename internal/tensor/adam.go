package tensor

import "math"

// AdamCoef holds one Adam step's coefficients: the moment decays B1, B2 and
// their complements C1 = 1-B1, C2 = 1-B2 in float32 (the moments' type),
// the bias corrections BC1 = 1-beta1^t, BC2 = 1-beta2^t, the learning rate
// and epsilon in float64. The kernel reads the fields at their offsets.
type AdamCoef struct {
	B1, C1, B2, C2    float32
	BC1, BC2, LR, Eps float64
}

// AdamStep applies one Adam update to the parameters w from their gradient
// g, updating the moments m and v in place; the four slices are of one
// length. Per element, each operation is one IEEE rounding:
//
//	m = B1*m + C1*g                      (float32)
//	v = B2*v + (C2*g)*g                  (float32)
//	w -= float32(LR*(m/BC1) / (sqrt(v/BC2) + Eps))   (float64 inside)
//
// On amd64 with AVX the first len(w)&^7 elements go through adam_amd64.s,
// whose lanes run those operations in the same order; the Go loop finishes
// the tail, is the whole op everywhere else, and is the reference the tests
// hold the lanes to bit for bit. Each float32 product is converted
// explicitly so that no compiler fuses it into an FMA (one rounding instead
// of two).
func AdamStep(w, m, v, g []float32, k *AdamCoef) {
	m, v, g = m[:len(w)], v[:len(w)], g[:len(w)]
	j := 0
	if n := len(w) &^ 7; haveAVX && n != 0 {
		adamAVX(&w[0], &m[0], &v[0], &g[0], n, k)
		j = n
	}
	b1, c1, b2, c2 := k.B1, k.C1, k.B2, k.C2
	for ; j < len(w); j++ {
		gj := g[j]
		mj := float32(b1*m[j]) + float32(c1*gj)
		vj := float32(b2*v[j]) + float32(float32(c2*gj)*gj)
		m[j], v[j] = mj, vj
		mh := float64(mj) / k.BC1
		vh := float64(vj) / k.BC2
		w[j] -= float32(k.LR * mh / (math.Sqrt(vh) + k.Eps))
	}
}
