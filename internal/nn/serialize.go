package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// savedParam is the on-wire form of one parameter tensor.
type savedParam struct {
	Name  string
	Shape []int
	Data  []float64
}

// checkpoint is the on-wire container. Meta carries caller-defined model
// configuration (architecture name, bins, sequence length, ...).
type checkpoint struct {
	Magic  string
	Meta   map[string]string
	Params []savedParam
}

const checkpointMagic = "autolearn-nn-v1"

// SaveParams serializes model parameters plus caller metadata. Pilots store
// their architecture configuration in meta and rebuild the layer stack on
// load, so only weights travel.
func SaveParams(w io.Writer, params []*Param, meta map[string]string) error {
	cp := checkpoint{Magic: checkpointMagic, Meta: meta}
	for _, p := range params {
		cp.Params = append(cp.Params, savedParam{Name: p.Name, Shape: p.W.Shape, Data: p.W.Data})
	}
	if err := gob.NewEncoder(w).Encode(cp); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	return nil
}

// LoadCheckpoint decodes a checkpoint stream once: it passes the metadata
// to build, which returns the parameters of a model built from it, and
// copies the saved weights into them. The parameters must match the
// checkpoint in count and size. It returns the checkpoint metadata.
func LoadCheckpoint(r io.Reader, build func(meta map[string]string) ([]*Param, error)) (map[string]string, error) {
	var cp checkpoint
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	if cp.Magic != checkpointMagic {
		return nil, fmt.Errorf("nn: not a checkpoint (magic %q)", cp.Magic)
	}
	params, err := build(cp.Meta)
	if err != nil {
		return nil, err
	}
	if len(cp.Params) != len(params) {
		return nil, fmt.Errorf("nn: checkpoint has %d params, model has %d", len(cp.Params), len(params))
	}
	for i, sp := range cp.Params {
		p := params[i]
		if len(sp.Data) != p.W.Size() {
			return nil, fmt.Errorf("nn: param %d (%s) size %d != model %d", i, sp.Name, len(sp.Data), p.W.Size())
		}
		copy(p.W.Data, sp.Data)
		p.ZeroGrad()
	}
	return cp.Meta, nil
}

// LoadParams decodes a checkpoint into the given parameters, which must
// match in count and shape (i.e. the model must already be built with the
// right architecture). It returns the checkpoint metadata.
func LoadParams(r io.Reader, params []*Param) (map[string]string, error) {
	return LoadCheckpoint(r, func(map[string]string) ([]*Param, error) { return params, nil })
}
