//go:build !amd64

package tensor

// No vector kernel off amd64: haveAVX stays false, the Go loops of
// matmul.go are the whole of every kernel and these are never reached.
var haveAVX = false

func axpy1AVX(d, b0 *float32, n int, a0 float32) { panic("tensor: no AVX kernel") }

func tile4AVX(d *float32, ldd int, a *float32, lda, ast int, b *float32, ldb, k, n int, skip bool) {
	panic("tensor: no AVX kernel")
}

func termsAVX(d *float32, n int, b *float32, ldb int, idx *int32, val *float32, nt int) {
	panic("tensor: no AVX kernel")
}
