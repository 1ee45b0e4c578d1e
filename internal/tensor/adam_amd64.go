package tensor

// The AVX form of AdamStep's loop over elements [0, n), n a positive
// multiple of 8. Every pointer must have n elements behind it.
//
//go:noescape
func adamAVX(w, m, v, grad *float32, n int, k *AdamCoef)
