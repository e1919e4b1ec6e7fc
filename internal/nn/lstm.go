package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// LSTM processes an input sequence [N, T, D] and emits the final hidden
// state [N, H]. Gate order in the packed weight matrices is i, f, g, o.
// Backward runs full BPTT from the last-step gradient.
type LSTM struct {
	In, Hidden int

	wx, wh, b *Param

	// Per-timestep caches for BPTT.
	xs     *Tensor
	hs, cs []*Tensor // h_t, c_t for t = 0..T (index 0 is the zero state)
	gates  []*Tensor // post-activation gate values per step [N, 4H]
	lastN  int
	lastT  int
}

// NewLSTM builds an LSTM with Xavier-initialized weights and forget-gate
// bias of 1 (standard trick for gradient flow).
func NewLSTM(in, hidden int, rng *rand.Rand) (*LSTM, error) {
	if in <= 0 || hidden <= 0 {
		return nil, fmt.Errorf("nn: lstm dims must be positive")
	}
	l := &LSTM{In: in, Hidden: hidden,
		wx: newParam("wx", in, 4*hidden),
		wh: newParam("wh", hidden, 4*hidden),
		b:  newParam("b", 1, 4*hidden)}
	l.wx.W.RandNormal(rng, math.Sqrt(1.0/float64(in)))
	l.wh.W.RandNormal(rng, math.Sqrt(1.0/float64(hidden)))
	for j := hidden; j < 2*hidden; j++ {
		l.b.W.Data[j] = 1 // forget gate bias
	}
	return l, nil
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Forward implements Layer on [N, T, D] → [N, H].
func (l *LSTM) Forward(x *Tensor, train bool) (*Tensor, error) {
	if len(x.Shape) != 3 || x.Shape[2] != l.In {
		return nil, fmt.Errorf("nn: lstm expects [N,T,%d], got %v", l.In, x.Shape)
	}
	n, t := x.Shape[0], x.Shape[1]
	l.xs, l.lastN, l.lastT = x, n, t
	h4 := 4 * l.Hidden
	// Recycle the previous pass's per-step caches: they are only ever
	// referenced between one Forward and the matching Backward.
	for _, s := range l.gates {
		releaseScratch(s)
	}
	for _, s := range l.hs {
		releaseScratch(s)
	}
	for _, s := range l.cs {
		releaseScratch(s)
	}
	l.hs = l.hs[:0]
	l.cs = l.cs[:0]
	l.gates = l.gates[:0]
	l.hs = append(l.hs, getScratchZero(n, l.Hidden))
	l.cs = append(l.cs, getScratchZero(n, l.Hidden))

	xt := getScratch(n, l.In)
	zx := getScratch(n, h4)
	zh := getScratch(n, h4)
	defer func() {
		releaseScratch(xt)
		releaseScratch(zx)
		releaseScratch(zh)
	}()
	for step := 0; step < t; step++ {
		for i := 0; i < n; i++ {
			copy(xt.Data[i*l.In:(i+1)*l.In], x.Data[(i*t+step)*l.In:(i*t+step+1)*l.In])
		}
		gemmInto(xt.Data, l.wx.W.Data, zx.Data, n, l.In, h4)
		gemmInto(l.hs[step].Data, l.wh.W.Data, zh.Data, n, l.Hidden, h4)
		gates := getScratch(n, h4)
		h := getScratch(n, l.Hidden)
		c := getScratch(n, l.Hidden)
		prevC := l.cs[step]
		for i := 0; i < n; i++ {
			for j := 0; j < l.Hidden; j++ {
				zi := zx.Data[i*h4+j] + zh.Data[i*h4+j] + l.b.W.Data[j]
				zf := zx.Data[i*h4+l.Hidden+j] + zh.Data[i*h4+l.Hidden+j] + l.b.W.Data[l.Hidden+j]
				zg := zx.Data[i*h4+2*l.Hidden+j] + zh.Data[i*h4+2*l.Hidden+j] + l.b.W.Data[2*l.Hidden+j]
				zo := zx.Data[i*h4+3*l.Hidden+j] + zh.Data[i*h4+3*l.Hidden+j] + l.b.W.Data[3*l.Hidden+j]
				ig, fg, gg, og := sigmoid(zi), sigmoid(zf), math.Tanh(zg), sigmoid(zo)
				gates.Data[i*h4+j] = ig
				gates.Data[i*h4+l.Hidden+j] = fg
				gates.Data[i*h4+2*l.Hidden+j] = gg
				gates.Data[i*h4+3*l.Hidden+j] = og
				ct := fg*prevC.Data[i*l.Hidden+j] + ig*gg
				c.Data[i*l.Hidden+j] = ct
				h.Data[i*l.Hidden+j] = og * math.Tanh(ct)
			}
		}
		l.gates = append(l.gates, gates)
		l.hs = append(l.hs, h)
		l.cs = append(l.cs, c)
	}
	return l.hs[t].Clone(), nil
}

// Backward implements Layer: grad is d(loss)/d(h_T) of shape [N, H]; the
// return value is d(loss)/d(x) of shape [N, T, D].
func (l *LSTM) Backward(grad *Tensor) (*Tensor, error) {
	if l.xs == nil {
		return nil, fmt.Errorf("nn: lstm backward before forward")
	}
	n, t := l.lastN, l.lastT
	h4 := 4 * l.Hidden
	dh := getScratch(n, l.Hidden)
	copy(dh.Data, grad.Data)
	dc := getScratchZero(n, l.Hidden)
	dx := NewTensor(n, t, l.In)

	dz := getScratch(n, h4)
	xt := getScratch(n, l.In)
	dwx := getScratch(l.In, h4)
	dwh := getScratch(l.Hidden, h4)
	dxt := getScratch(n, l.In)
	dhPrev := getScratch(n, l.Hidden)
	defer func() {
		releaseScratch(dh)
		releaseScratch(dc)
		releaseScratch(dz)
		releaseScratch(xt)
		releaseScratch(dwx)
		releaseScratch(dwh)
		releaseScratch(dxt)
		releaseScratch(dhPrev)
	}()
	for step := t - 1; step >= 0; step-- {
		gates := l.gates[step]
		prevC := l.cs[step]
		c := l.cs[step+1]
		for i := 0; i < n; i++ {
			for j := 0; j < l.Hidden; j++ {
				ig := gates.Data[i*h4+j]
				fg := gates.Data[i*h4+l.Hidden+j]
				gg := gates.Data[i*h4+2*l.Hidden+j]
				og := gates.Data[i*h4+3*l.Hidden+j]
				ct := c.Data[i*l.Hidden+j]
				tc := math.Tanh(ct)
				dhv := dh.Data[i*l.Hidden+j]
				dct := dc.Data[i*l.Hidden+j] + dhv*og*(1-tc*tc)
				// Gate pre-activation gradients.
				dz.Data[i*h4+j] = dct * gg * ig * (1 - ig)
				dz.Data[i*h4+l.Hidden+j] = dct * prevC.Data[i*l.Hidden+j] * fg * (1 - fg)
				dz.Data[i*h4+2*l.Hidden+j] = dct * ig * (1 - gg*gg)
				dz.Data[i*h4+3*l.Hidden+j] = dhv * tc * og * (1 - og)
				// Carry cell gradient to the previous step.
				dc.Data[i*l.Hidden+j] = dct * fg
			}
		}
		// Parameter gradients: dWx += xtᵀ dz, dWh += h_{t-1}ᵀ dz, db += Σ dz.
		for i := 0; i < n; i++ {
			copy(xt.Data[i*l.In:(i+1)*l.In], l.xs.Data[(i*t+step)*l.In:(i*t+step+1)*l.In])
		}
		gemmTransAInto(xt.Data, dz.Data, dwx.Data, n, l.In, h4)
		if err := l.wx.grad().AddScaled(dwx, 1); err != nil {
			return nil, err
		}
		gemmTransAInto(l.hs[step].Data, dz.Data, dwh.Data, n, l.Hidden, h4)
		if err := l.wh.grad().AddScaled(dwh, 1); err != nil {
			return nil, err
		}
		db := l.b.grad().Data
		for i := 0; i < n; i++ {
			for j := 0; j < h4; j++ {
				db[j] += dz.Data[i*h4+j]
			}
		}
		// Input and previous-hidden gradients.
		gemmTransBInto(dz.Data, l.wx.W.Data, dxt.Data, n, h4, l.In)
		for i := 0; i < n; i++ {
			copy(dx.Data[(i*t+step)*l.In:(i*t+step+1)*l.In], dxt.Data[i*l.In:(i+1)*l.In])
		}
		gemmTransBInto(dz.Data, l.wh.W.Data, dhPrev.Data, n, h4, l.Hidden)
		dh, dhPrev = dhPrev, dh
	}
	return dx, nil
}

// Params implements Layer.
func (l *LSTM) Params() []*Param { return []*Param{l.wx, l.wh, l.b} }

// TimeDistributed applies an inner model independently to each timestep of
// a [N, T, D] input, sharing weights across steps (Keras's TimeDistributed
// wrapper, which the RNN pilot uses around its conv encoder). The inner
// model must map [N', D] (or the reshaped per-step shape) to [N', F].
type TimeDistributed struct {
	Inner     *Sequential
	StepShape []int // per-step input shape excluding the batch dim, e.g. [C,H,W]
	lastT     int
	lastF     int
}

// NewTimeDistributed wraps inner, which consumes per-step tensors shaped
// [N*T, stepShape...].
func NewTimeDistributed(inner *Sequential, stepShape ...int) *TimeDistributed {
	return &TimeDistributed{Inner: inner, StepShape: append([]int(nil), stepShape...)}
}

// Forward implements Layer on [N, T, prod(StepShape)] → [N, T, F]. All
// timesteps are folded into the batch dimension for one inner pass, which
// keeps weight sharing exact.
func (td *TimeDistributed) Forward(x *Tensor, train bool) (*Tensor, error) {
	if len(x.Shape) != 3 {
		return nil, fmt.Errorf("nn: timedistributed expects [N,T,D], got %v", x.Shape)
	}
	n, t := x.Shape[0], x.Shape[1]
	td.lastT = t
	stepVol := 1
	for _, d := range td.StepShape {
		stepVol *= d
	}
	if x.Shape[2] != stepVol {
		return nil, fmt.Errorf("nn: timedistributed step volume %d != input %d", stepVol, x.Shape[2])
	}
	folded, err := x.Reshape(append([]int{n * t}, td.StepShape...)...)
	if err != nil {
		return nil, err
	}
	y, err := td.Inner.Forward(folded, train)
	if err != nil {
		return nil, err
	}
	if len(y.Shape) != 2 || y.Shape[0] != n*t {
		return nil, fmt.Errorf("nn: timedistributed inner output must be [N*T,F], got %v", y.Shape)
	}
	td.lastF = y.Shape[1]
	return y.Reshape(n, t, y.Shape[1])
}

// Backward implements Layer.
func (td *TimeDistributed) Backward(grad *Tensor) (*Tensor, error) {
	if len(grad.Shape) != 3 {
		return nil, fmt.Errorf("nn: timedistributed backward expects [N,T,F]")
	}
	n, t := grad.Shape[0], grad.Shape[1]
	folded, err := grad.Reshape(n*t, td.lastF)
	if err != nil {
		return nil, err
	}
	// Drive the inner sequential manually to recover the input gradient.
	g := folded
	for i := len(td.Inner.Layers) - 1; i >= 0; i-- {
		g, err = td.Inner.Layers[i].Backward(g)
		if err != nil {
			return nil, err
		}
	}
	stepVol := 1
	for _, d := range td.StepShape {
		stepVol *= d
	}
	return g.Reshape(n, t, stepVol)
}

// Params implements Layer.
func (td *TimeDistributed) Params() []*Param { return td.Inner.Params() }
