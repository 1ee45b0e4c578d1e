//go:build !amd64

package tensor

// No vector kernel off amd64: haveAVX stays false, the scalar loops of
// matmul.go are the whole micro-kernel and these are never reached.
var haveAVX = false

func axpy1AVX(d, b0 *float32, n int, a0 float32) { panic("tensor: no AVX kernel") }

func axpy4AVX(d, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3 float32) {
	panic("tensor: no AVX kernel")
}

func axpy4x2AVX(d, e, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3, c0, c1, c2, c3 float32) {
	panic("tensor: no AVX kernel")
}
