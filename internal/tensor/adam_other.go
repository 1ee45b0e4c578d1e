//go:build !amd64

package tensor

// haveAVX is false off amd64 (axpy_other.go): AdamStep's Go loop is the whole
// update and this is never reached.

func adamAVX(w, m, v, grad *float32, n int, k *AdamCoef) { panic("tensor: no AVX kernel") }
