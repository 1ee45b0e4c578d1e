package autograd

import (
	"fmt"

	"wholegraph/internal/tensor"
	"wholegraph/internal/xrand"
)

// The built-in ops. Each is a zero-size kernel type whose Forward is the
// op's one definition of its math, run when the op is recorded and again on
// every replay; the constructors only check shapes and record.

type (
	matMul     struct{}
	add        struct{}
	addBias    struct{}
	relu       struct{}
	scale      struct{}
	dropout    struct{}
	rows       struct{}
	concatCols struct{}
	scale1p    struct{}
)

func (matMul) Label() string     { return "matmul" }
func (add) Label() string        { return "add" }
func (addBias) Label() string    { return "addbias" }
func (relu) Label() string       { return "relu" }
func (scale) Label() string      { return "scale" }
func (dropout) Label() string    { return "dropout" }
func (rows) Label() string       { return "rows" }
func (concatCols) Label() string { return "concat" }
func (scale1p) Label() string    { return "scale1p" }

// binary records the two-input op k on a and b.
func binary(k Kernel, a, b *Var) *Var {
	return a.tape.Record(Record{Kernel: k, In: [2]*Var{a, b}})
}

// MatMul returns x*w with gradients to both inputs.
func MatMul(x, w *Var) *Var { return binary(matMul{}, x, w) }

func (matMul) Forward(r *Record) {
	x, w := r.In[0].Value, r.In[1].Value
	tensor.MatMulInto(r.Output(x.R, w.C, false), x, w)
}

func (matMul) Backward(r *Record) {
	x, w := r.In[0], r.In[1]
	if x.needGrad {
		gx := r.Scratch(0, x.Value.R, x.Value.C, false)
		tensor.MatMulTInto(gx, r.Out.Grad, w.Value) // dX = dY * Wᵀ
		x.AccumGrad(gx)
	}
	if w.needGrad {
		gw := r.Scratch(1, w.Value.R, w.Value.C, false)
		tensor.TMatMulInto(gw, x.Value, r.Out.Grad) // dW = Xᵀ * dY
		w.AccumGrad(gw)
	}
}

// Add returns a + b elementwise.
func Add(a, b *Var) *Var { return binary(add{}, a, b) }

func (add) Forward(r *Record) {
	a, b := r.In[0].Value, r.In[1].Value
	tensor.AddInto(r.Output(a.R, a.C, false), a, b)
}

func (add) Backward(r *Record) {
	r.In[0].AccumGrad(r.Out.Grad)
	r.In[1].AccumGrad(r.Out.Grad)
}

// AddBias returns x with the (1 x C) bias row added to every row.
func AddBias(x, b *Var) *Var { return binary(addBias{}, x, b) }

func (addBias) Forward(r *Record) {
	x, b := r.In[0].Value, r.In[1].Value
	tensor.AddRowInto(r.Output(x.R, x.C, false), x, b)
}

func (addBias) Backward(r *Record) {
	r.In[0].AccumGrad(r.Out.Grad)
	if b := r.In[1]; b.needGrad {
		gb := r.Scratch(1, 1, b.Value.C, true)
		tensor.ColSumInto(gb, r.Out.Grad)
		b.AccumGrad(gb)
	}
}

// ReLU returns max(x, 0).
func ReLU(x *Var) *Var { return x.tape.Record(Record{Kernel: relu{}, In: [2]*Var{x}}) }

func (relu) Forward(r *Record) {
	x := r.In[0].Value
	tensor.ReLUInto(r.Output(x.R, x.C, false), x)
}

func (relu) Backward(r *Record) {
	x := r.In[0]
	gx := r.Scratch(0, x.Value.R, x.Value.C, true)
	tensor.ReLUGradInto(gx, x.Value, r.Out.Grad)
	x.AccumGrad(gx)
}

// Scale returns s*x.
func Scale(x *Var, s float32) *Var {
	return x.tape.Record(Record{Kernel: scale{}, In: [2]*Var{x}, F: s})
}

func (scale) Forward(r *Record) {
	x := r.In[0].Value
	tensor.ScaleInto(r.Output(x.R, x.C, false), x, r.F)
}

func (scale) Backward(r *Record) {
	x := r.In[0]
	gx := r.Scratch(0, x.Value.R, x.Value.C, true)
	tensor.ScaleInto(gx, r.Out.Grad, r.F)
	x.AccumGrad(gx)
}

// Dropout zeroes entries with probability p, one src.Float32 draw each,
// scaling survivors by 1/(1-p). With p <= 0 it is the identity. A replay
// draws the next values of src, exactly like a second eager iteration would,
// so replayed and eager training stay on the same random stream.
func Dropout(x *Var, p float32, src *xrand.Source) *Var {
	return x.tape.Record(Record{Kernel: dropout{}, In: [2]*Var{x}, F: p, Arg: src})
}

func (dropout) Forward(r *Record) {
	x := r.In[0].Value
	mask := r.Buffer(0, x.R, x.C, false)
	tensor.DropoutInto(r.Output(x.R, x.C, false), x, mask, r.F, r.Arg.(*xrand.Source))
}

func (dropout) Backward(r *Record) {
	x := r.In[0]
	gx := r.Scratch(0, x.Value.R, x.Value.C, true)
	tensor.MulInto(gx, r.Out.Grad, r.Aux[0])
	x.AccumGrad(gx)
}

// Rows returns the sub-matrix of the first *n rows of x (a view for the
// forward value; the backward scatters the gradient into the top rows). GNN
// layers use it to slice target-node rows off a gathered feature block, with
// n pointing at the block's target count: a replay re-reads *n, so the slice
// tracks the live batch size.
func Rows(x *Var, n *int) *Var {
	return x.tape.Record(Record{Kernel: rows{}, In: [2]*Var{x}, Arg: n})
}

func (rows) Forward(r *Record) {
	x, n := r.In[0].Value, *r.Arg.(*int)
	if n > x.R {
		panic(fmt.Sprintf("autograd: Rows(%d) of %d-row matrix", n, x.R))
	}
	r.OutputView(n, x.C, x.V[:n*x.C])
}

func (rows) Backward(r *Record) {
	x := r.In[0]
	gx := r.Scratch(0, x.Value.R, x.Value.C, true)
	copy(gx.V, r.Out.Grad.V) // fills the first Out.Grad.R rows, rest stays zero
	x.AccumGrad(gx)
}

// ConcatCols returns [a | b] column-wise.
func ConcatCols(a, b *Var) *Var {
	if a.Value.R != b.Value.R {
		panic("autograd: ConcatCols row mismatch")
	}
	return binary(concatCols{}, a, b)
}

func (concatCols) Forward(r *Record) {
	a, b := r.In[0].Value, r.In[1].Value
	out := r.Output(a.R, a.C+b.C, false)
	for i := 0; i < a.R; i++ {
		copy(out.Row(i)[:a.C], a.Row(i))
		copy(out.Row(i)[a.C:], b.Row(i))
	}
}

func (concatCols) Backward(r *Record) {
	// Input k's gradient is its columns of the output's, from column off.
	for k, off := range [2]int{0, r.In[0].Value.C} {
		in := r.In[k]
		if !in.needGrad {
			continue
		}
		g := r.Scratch(k, in.Value.R, in.Value.C, true)
		for i := 0; i < in.Value.R; i++ {
			copy(g.Row(i), r.Out.Grad.Row(i)[off:])
		}
		in.AccumGrad(g)
	}
}

// ScaleByScalarPlusOne returns (1 + s) * x where s is a learnable [1 x 1]
// scalar (the eps of a GIN layer). Gradients flow to both inputs:
// dx = (1+s)·dy and ds = sum(x ⊙ dy). The factor is read live: the optimizer
// updates s between a recording and its replays.
func ScaleByScalarPlusOne(x, s *Var) *Var {
	if s.Value.R != 1 || s.Value.C != 1 {
		panic("autograd: scalar must be 1x1")
	}
	return binary(scale1p{}, x, s)
}

func (scale1p) Forward(r *Record) {
	x, s := r.In[0].Value, r.In[1].Value
	tensor.ScaleInto(r.Output(x.R, x.C, false), x, 1+s.V[0])
}

func (scale1p) Backward(r *Record) {
	x, s := r.In[0], r.In[1]
	if x.needGrad {
		gx := r.Scratch(0, x.Value.R, x.Value.C, true)
		tensor.ScaleInto(gx, r.Out.Grad, 1+s.Value.V[0])
		x.AccumGrad(gx)
	}
	if s.needGrad {
		var dot float64
		for i, g := range r.Out.Grad.V {
			dot += float64(g) * float64(x.Value.V[i])
		}
		gs := r.Scratch(1, 1, 1, true)
		gs.V[0] = float32(dot)
		s.AccumGrad(gs)
	}
}
