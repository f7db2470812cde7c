package baselines

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"

	"github.com/zeroshot-db/zeroshot/internal/nn"
)

// savedNet is the gob header preceding the parameters of the neural
// baselines; the architecture is fully determined by the hidden size.
type savedNet struct {
	Hidden int
}

// byteReader guards stacked gob decoders: gob wraps readers lacking
// ReadByte in an internal bufio.Reader that over-reads past its message,
// corrupting the stream for the next decoder.
func byteReader(r io.Reader) io.Reader {
	if _, ok := r.(io.ByteReader); !ok {
		return bufio.NewReader(r)
	}
	return r
}

// Save writes the MSCN architecture and weights to w.
func (m *MSCN) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(savedNet{Hidden: m.cfg.Hidden}); err != nil {
		return fmt.Errorf("baselines: encode MSCN: %w", err)
	}
	return nn.SaveParams(w, m.Params())
}

// LoadMSCN reads a model saved by (*MSCN).Save. Training hyperparameters
// revert to defaults; the architecture comes from the file.
func LoadMSCN(r io.Reader) (*MSCN, error) {
	r = byteReader(r)
	var hdr savedNet
	if err := gob.NewDecoder(r).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("baselines: decode MSCN: %w", err)
	}
	if err := nn.CheckWidth(hdr.Hidden); err != nil {
		return nil, err
	}
	cfg := DefaultMSCNConfig()
	cfg.Hidden = hdr.Hidden
	m := NewMSCN(cfg)
	if err := nn.LoadParams(r, m.Params()); err != nil {
		return nil, err
	}
	return m, nil
}

// Save writes the E2E architecture and weights to w.
func (m *E2E) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(savedNet{Hidden: m.cfg.Hidden}); err != nil {
		return fmt.Errorf("baselines: encode E2E: %w", err)
	}
	return nn.SaveParams(w, m.Params())
}

// LoadE2E reads a model saved by (*E2E).Save.
func LoadE2E(r io.Reader) (*E2E, error) {
	r = byteReader(r)
	var hdr savedNet
	if err := gob.NewDecoder(r).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("baselines: decode E2E: %w", err)
	}
	if err := nn.CheckWidth(hdr.Hidden); err != nil {
		return nil, err
	}
	cfg := DefaultE2EConfig()
	cfg.Hidden = hdr.Hidden
	m := NewE2E(cfg)
	if err := nn.LoadParams(r, m.Params()); err != nil {
		return nil, err
	}
	return m, nil
}

// savedScaledCost is the gob wire form of the regression baseline.
type savedScaledCost struct {
	A, B   float64
	Fitted bool
}

// Save writes the fitted regression parameters to w.
func (s *ScaledCost) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(savedScaledCost{A: s.A, B: s.B, Fitted: s.fitted}); err != nil {
		return fmt.Errorf("baselines: encode ScaledCost: %w", err)
	}
	return nil
}

// LoadScaledCost reads a model saved by (*ScaledCost).Save.
func LoadScaledCost(r io.Reader) (*ScaledCost, error) {
	var sv savedScaledCost
	if err := gob.NewDecoder(r).Decode(&sv); err != nil {
		return nil, fmt.Errorf("baselines: decode ScaledCost: %w", err)
	}
	return &ScaledCost{A: sv.A, B: sv.B, fitted: sv.Fitted}, nil
}
