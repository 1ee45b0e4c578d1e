package tensor

// The AVX forms of relu, reluGrad and maskMul (ops.go) over elements [0, n),
// n a positive multiple of 8. Every pointer must have n elements behind it;
// d may alias a.

//go:noescape
func reluAVX(d, a *float32, n int)

//go:noescape
func reluGradAVX(d, a, grad *float32, n int)

//go:noescape
func maskMulAVX(d, a, m *float32, n int)
