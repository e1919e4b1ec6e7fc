// Package pilot implements the six DonkeyCar autopilot models AutoLearn
// ships ("AutoLearn comes with six tested models, including linear, memory,
// 3D, categorical, inferred, and RNN"), built on the nn package: dataset
// assembly from drive records or tubs, training, frame-based inference, and
// checkpoint save/load.
package pilot

import (
	"encoding/json"
	"fmt"
)

// Kind names one of the six supported autopilot architectures.
type Kind string

// The six tested models from the paper (§3.3).
const (
	Linear      Kind = "linear"      // continuous angle + throttle heads
	Categorical Kind = "categorical" // binned angle + throttle softmax heads
	Inferred    Kind = "inferred"    // angle only; throttle inferred from it
	Memory      Kind = "memory"      // image + recent command history
	RNN         Kind = "rnn"         // frame sequence through an LSTM
	Conv3D      Kind = "3d"          // frame sequence through 3-D convolution
)

// AllKinds lists the six architectures in the order the paper names them.
func AllKinds() []Kind {
	return []Kind{Linear, Memory, Conv3D, Categorical, Inferred, RNN}
}

// Config describes a pilot's input geometry and architecture knobs.
type Config struct {
	Kind     Kind `json:"kind"`
	Width    int  `json:"width"`
	Height   int  `json:"height"`
	Channels int  `json:"channels"`

	// Categorical head sizes (DonkeyCar defaults: 15 angle, 20 throttle).
	AngleBins    int `json:"angle_bins"`
	ThrottleBins int `json:"throttle_bins"`

	// SeqLen is the frame-history length for RNN and 3D pilots.
	SeqLen int `json:"seq_len"`
	// MemoryLen is how many past (angle, throttle) pairs the memory pilot
	// appends to its image features.
	MemoryLen int `json:"memory_len"`

	// Encoder sizing.
	ConvFilters1 int     `json:"conv_filters_1"`
	ConvFilters2 int     `json:"conv_filters_2"`
	DenseUnits   int     `json:"dense_units"`
	DropoutRate  float64 `json:"dropout_rate"`
	// BatchNorm inserts Keras-style batch normalization after each conv
	// block, as DonkeyCar's stock architectures do.
	BatchNorm bool `json:"batch_norm"`

	// MaxThrottle and MinThrottle bound the inferred pilot's throttle rule.
	MaxThrottle float64 `json:"max_throttle"`
	MinThrottle float64 `json:"min_throttle"`

	Seed int64 `json:"seed"`
}

// DefaultConfig returns a small, fast configuration for the given kind and
// camera geometry, sized so CPU training in tests stays subsecond-scale.
func DefaultConfig(kind Kind, width, height, channels int) Config {
	return Config{
		Kind: kind, Width: width, Height: height, Channels: channels,
		AngleBins: 15, ThrottleBins: 20,
		SeqLen: 3, MemoryLen: 3,
		ConvFilters1: 8, ConvFilters2: 16, DenseUnits: 64,
		DropoutRate: 0.1,
		MaxThrottle: 0.55, MinThrottle: 0.22,
		Seed: 1,
	}
}

// Validate checks the configuration for the chosen kind.
func (c Config) Validate() error {
	switch c.Kind {
	case Linear, Categorical, Inferred, Memory, RNN, Conv3D:
	default:
		return fmt.Errorf("pilot: unknown kind %q", c.Kind)
	}
	if c.Width < 8 || c.Height < 8 {
		return fmt.Errorf("pilot: image %dx%d too small (min 8x8)", c.Width, c.Height)
	}
	if c.Channels != 1 && c.Channels != 3 {
		return fmt.Errorf("pilot: channels must be 1 or 3")
	}
	if c.Kind == Categorical && (c.AngleBins < 2 || c.ThrottleBins < 2) {
		return fmt.Errorf("pilot: categorical needs >= 2 bins per head")
	}
	if (c.Kind == RNN || c.Kind == Conv3D) && c.SeqLen < 2 {
		return fmt.Errorf("pilot: %s needs SeqLen >= 2", c.Kind)
	}
	if c.Kind == Memory && c.MemoryLen < 1 {
		return fmt.Errorf("pilot: memory needs MemoryLen >= 1")
	}
	if c.ConvFilters1 < 1 || c.ConvFilters2 < 1 || c.DenseUnits < 1 {
		return fmt.Errorf("pilot: encoder sizes must be positive")
	}
	if c.Kind != Conv3D {
		if _, err := c.encoderDims(); err != nil {
			return err
		}
	}
	if c.DropoutRate < 0 || c.DropoutRate >= 1 {
		return fmt.Errorf("pilot: dropout rate must be in [0,1)")
	}
	if c.MaxThrottle <= c.MinThrottle {
		return fmt.Errorf("pilot: MaxThrottle must exceed MinThrottle")
	}
	return c.checkWeightSizes()
}

// maxWeightElems caps the elements of any one weight tensor a config may
// ask buildModel for: 1<<27 float64s are 1 GiB. E14's largest pilot,
// 128x96 with a 2048-unit trunk, needs about 21.6M.
const maxWeightElems = 1 << 27

// checkWeightSizes rejects a config for which buildModel would allocate
// a weight tensor of more than maxWeightElems elements, so a huge camera
// or trunk is an error here, not a failed allocation in New or Load.
// Each tensor is listed by the factors of its element count, and fits
// stops before a product could overflow; a factor that is a sum adds
// saturated terms, which neither overflow nor fall back under the cap.
// Biases and batch-norm vectors are never larger than the weight beside
// them. It runs after the other checks in Validate, so every factor is
// positive.
func (c Config) checkWeightSizes() error {
	sat := func(n int) int { return min(n, maxWeightElems+1) }
	du, f1 := c.DenseUnits, c.ConvFilters1
	var tensors [][]int
	if c.Kind == Conv3D {
		oh, ow := convOut(c.Height, 5, 2), convOut(c.Width, 5, 2)
		tensors = [][]int{{f1, c.Channels, 2, 5, 5}, {f1, c.SeqLen - 1, oh, ow, du}}
	} else {
		h2, w2 := convOut(convOut(c.Height, 5, 2), 3, 2), convOut(convOut(c.Width, 5, 2), 3, 2)
		f2 := c.ConvFilters2
		tensors = [][]int{{f1, c.Channels, 5, 5}, {f2, f1, 3, 3}, {f2, h2, w2, du}}
	}
	head := []int{du, 2}
	switch c.Kind {
	case Inferred:
		head = []int{du, 1}
	case Categorical:
		head = []int{du, sat(c.AngleBins) + sat(c.ThrottleBins)}
	case Memory:
		tensors = append(tensors, []int{sat(du) + 2*sat(c.MemoryLen), du})
	case RNN:
		tensors = append(tensors, []int{du, 4, du}) // the LSTM's wx and wh
	}
	for _, dims := range append(tensors, head) {
		if !fits(dims) {
			return fmt.Errorf("pilot: config needs a weight tensor of %v elements, over the %d limit", dims, maxWeightElems)
		}
	}
	return nil
}

// fits reports whether the product of dims stays within maxWeightElems,
// checking each step before it multiplies.
func fits(dims []int) bool {
	n := 1
	for _, d := range dims {
		if d < 1 || n > maxWeightElems/d {
			return false
		}
		n *= d
	}
	return true
}

// marshal encodes the config for checkpoint metadata.
func (c Config) marshal() (string, error) {
	b, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("pilot: encode config: %w", err)
	}
	return string(b), nil
}

// unmarshalConfig decodes checkpoint metadata back into a Config.
func unmarshalConfig(s string) (Config, error) {
	var c Config
	if err := json.Unmarshal([]byte(s), &c); err != nil {
		return Config{}, fmt.Errorf("pilot: decode config: %w", err)
	}
	return c, nil
}
