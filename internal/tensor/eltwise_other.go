//go:build !amd64

package tensor

// haveAVX is false off amd64 (axpy_other.go): the Go loops of ops.go are the
// whole of relu, reluGrad and maskMul and these are never reached.

func reluAVX(d, a *float32, n int) { panic("tensor: no AVX kernel") }

func reluGradAVX(d, a, grad *float32, n int) { panic("tensor: no AVX kernel") }

func maskMulAVX(d, a, m *float32, n int) { panic("tensor: no AVX kernel") }
