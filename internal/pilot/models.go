package pilot

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
)

// convOut returns the output length of a valid convolution, 0 when the
// input is shorter than the kernel (where truncating integer division
// would report 1).
func convOut(in, k, stride int) int {
	if in < k {
		return 0
	}
	return (in-k)/stride + 1
}

// encoderDims computes the two-conv encoder's intermediate and output
// geometry for the configured image size.
func (c Config) encoderDims() (flat int, err error) {
	h1, w1 := convOut(c.Height, 5, 2), convOut(c.Width, 5, 2)
	h2, w2 := convOut(h1, 3, 2), convOut(w1, 3, 2)
	if h2 < 1 || w2 < 1 {
		return 0, fmt.Errorf("pilot: image %dx%d too small for the conv encoder", c.Width, c.Height)
	}
	return c.ConvFilters2 * h2 * w2, nil
}

// buildEncoder assembles the shared convolutional feature extractor:
// conv5x5/s2 → relu → conv3x3/s2 → relu → flatten → dense → relu → dropout.
// The output is [N, DenseUnits].
func (c Config) buildEncoder(rng *rand.Rand) (*nn.Sequential, error) {
	flat, err := c.encoderDims()
	if err != nil {
		return nil, err
	}
	conv1, err := nn.NewConv2D(c.Channels, c.ConvFilters1, 5, 2, rng)
	if err != nil {
		return nil, err
	}
	conv2, err := nn.NewConv2D(c.ConvFilters1, c.ConvFilters2, 3, 2, rng)
	if err != nil {
		return nil, err
	}
	drop, err := nn.NewDropout(c.DropoutRate, rng)
	if err != nil {
		return nil, err
	}
	layers := []nn.Layer{conv1, &nn.ReLU{}}
	if c.BatchNorm {
		bn1, err := nn.NewBatchNorm(c.ConvFilters1)
		if err != nil {
			return nil, err
		}
		layers = append(layers, bn1)
	}
	layers = append(layers, conv2, &nn.ReLU{})
	if c.BatchNorm {
		bn2, err := nn.NewBatchNorm(c.ConvFilters2)
		if err != nil {
			return nil, err
		}
		layers = append(layers, bn2)
	}
	layers = append(layers,
		&nn.Flatten{},
		nn.NewDense(flat, c.DenseUnits, rng), &nn.ReLU{},
		drop,
	)
	return nn.NewSequential(layers...), nil
}

// buildModel constructs the architecture and loss for the configured kind.
func (c Config) buildModel() (nn.Model, nn.Loss, error) {
	rng := rand.New(rand.NewSource(c.Seed))
	switch c.Kind {
	case Linear:
		enc, err := c.buildEncoder(rng)
		if err != nil {
			return nil, nil, err
		}
		layers := append(enc.Layers, nn.NewDense(c.DenseUnits, 2, rng), &nn.Tanh{})
		return nn.NewSequential(layers...), nn.MSE{}, nil

	case Inferred:
		enc, err := c.buildEncoder(rng)
		if err != nil {
			return nil, nil, err
		}
		layers := append(enc.Layers, nn.NewDense(c.DenseUnits, 1, rng), &nn.Tanh{})
		return nn.NewSequential(layers...), nn.MSE{}, nil

	case Categorical:
		enc, err := c.buildEncoder(rng)
		if err != nil {
			return nil, nil, err
		}
		out := c.AngleBins + c.ThrottleBins
		layers := append(enc.Layers, nn.NewDense(c.DenseUnits, out, rng))
		return nn.NewSequential(layers...),
			nn.SplitCategorical{AngleBins: c.AngleBins, ThrottleBins: c.ThrottleBins}, nil

	case Memory:
		enc, err := c.buildEncoder(rng)
		if err != nil {
			return nil, nil, err
		}
		telemetry := 2 * c.MemoryLen
		head := nn.NewSequential(
			nn.NewDense(c.DenseUnits+telemetry, c.DenseUnits, rng), &nn.ReLU{},
			nn.NewDense(c.DenseUnits, 2, rng), &nn.Tanh{},
		)
		return &memoryModel{cfg: c, encoder: enc, head: head}, nn.MSE{}, nil

	case RNN:
		enc, err := c.buildEncoder(rng)
		if err != nil {
			return nil, nil, err
		}
		lstm, err := nn.NewLSTM(c.DenseUnits, c.DenseUnits, rng)
		if err != nil {
			return nil, nil, err
		}
		return nn.NewSequential(
			nn.NewTimeDistributed(enc, c.Channels, c.Height, c.Width),
			lstm,
			nn.NewDense(c.DenseUnits, 2, rng), &nn.Tanh{},
		), nn.MSE{}, nil

	case Conv3D:
		conv, err := nn.NewConv3D(c.Channels, c.ConvFilters1, 2, 5, 2, rng)
		if err != nil {
			return nil, nil, err
		}
		ot := c.SeqLen - 2 + 1
		oh, ow := convOut(c.Height, 5, 2), convOut(c.Width, 5, 2)
		if ot < 1 || oh < 1 || ow < 1 {
			return nil, nil, fmt.Errorf("pilot: 3d input too small")
		}
		flat := c.ConvFilters1 * ot * oh * ow
		drop, err := nn.NewDropout(c.DropoutRate, rng)
		if err != nil {
			return nil, nil, err
		}
		return nn.NewSequential(
			conv, &nn.ReLU{},
			&nn.Flatten{},
			nn.NewDense(flat, c.DenseUnits, rng), &nn.ReLU{},
			drop,
			nn.NewDense(c.DenseUnits, 2, rng), &nn.Tanh{},
		), nn.MSE{}, nil
	}
	return nil, nil, fmt.Errorf("pilot: unknown kind %q", c.Kind)
}

// memoryModel is the two-input architecture of the memory pilot: the image
// goes through the conv encoder, the recent-command telemetry vector is
// concatenated onto the encoder features, and a dense head maps the result
// to (angle, throttle). Input rows are [imageVolume + 2*MemoryLen].
type memoryModel struct {
	cfg     Config
	encoder *nn.Sequential
	head    *nn.Sequential

	lastN int
}

func (m *memoryModel) imgVol() int { return m.cfg.Channels * m.cfg.Height * m.cfg.Width }

// Forward implements nn.Model.
func (m *memoryModel) Forward(x *nn.Tensor, train bool) (*nn.Tensor, error) {
	iv := m.imgVol()
	tv := 2 * m.cfg.MemoryLen
	if len(x.Shape) != 2 || x.Shape[1] != iv+tv {
		return nil, fmt.Errorf("pilot: memory model expects [N,%d], got %v", iv+tv, x.Shape)
	}
	n := x.Shape[0]
	m.lastN = n
	img := nn.NewTensor(n, m.cfg.Channels, m.cfg.Height, m.cfg.Width)
	tel := nn.NewTensor(n, tv)
	for i := 0; i < n; i++ {
		copy(img.Data[i*iv:(i+1)*iv], x.Data[i*(iv+tv):i*(iv+tv)+iv])
		copy(tel.Data[i*tv:(i+1)*tv], x.Data[i*(iv+tv)+iv:(i+1)*(iv+tv)])
	}
	feat, err := m.encoder.Forward(img, train)
	if err != nil {
		return nil, err
	}
	f := feat.Shape[1]
	joined := nn.NewTensor(n, f+tv)
	for i := 0; i < n; i++ {
		copy(joined.Data[i*(f+tv):i*(f+tv)+f], feat.Data[i*f:(i+1)*f])
		copy(joined.Data[i*(f+tv)+f:(i+1)*(f+tv)], tel.Data[i*tv:(i+1)*tv])
	}
	return m.head.Forward(joined, train)
}

// Backward implements nn.Model.
func (m *memoryModel) Backward(grad *nn.Tensor) error {
	// Drive the head manually to get the joined-input gradient.
	g := grad
	var err error
	for i := len(m.head.Layers) - 1; i >= 0; i-- {
		g, err = m.head.Layers[i].Backward(g)
		if err != nil {
			return err
		}
	}
	f := m.cfg.DenseUnits
	tv := 2 * m.cfg.MemoryLen
	n := m.lastN
	featGrad := nn.NewTensor(n, f)
	for i := 0; i < n; i++ {
		copy(featGrad.Data[i*f:(i+1)*f], g.Data[i*(f+tv):i*(f+tv)+f])
	}
	return m.encoder.Backward(featGrad)
}

// Params implements nn.Model.
func (m *memoryModel) Params() []*nn.Param {
	return append(m.encoder.Params(), m.head.Params()...)
}
