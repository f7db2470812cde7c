package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// savedTensor is the gob wire form of one parameter tensor.
type savedTensor struct {
	Rows, Cols int
	Data       []float64
}

// SaveParams writes parameter values (not optimizer state) to w in gob
// encoding, in slice order. Models serialize by passing their Params() in
// a stable order and deserialize into a freshly constructed model of the
// same architecture.
func SaveParams(w io.Writer, params []*Param) error {
	out := make([]savedTensor, len(params))
	for i, p := range params {
		out[i] = savedTensor{Rows: p.Val.Rows, Cols: p.Val.Cols, Data: p.Val.Data}
	}
	return gob.NewEncoder(w).Encode(out)
}

// MaxWidth caps the hidden width a saved model may declare. Loaders size
// the network from the file's header before LoadParams can compare any
// shape, so without a cap a few hostile bytes could ask for any amount
// of memory. It is 16 times the default width.
const MaxWidth = 512

// CheckWidth rejects a saved model's declared hidden width outside
// [1, MaxWidth]; loaders call it before they allocate the network.
func CheckWidth(hidden int) error {
	if hidden < 1 || hidden > MaxWidth {
		return fmt.Errorf("nn: saved model width %d outside [1, %d]", hidden, MaxWidth)
	}
	return nil
}

// LoadParams reads parameter values from r into params; shapes must match
// the saved model exactly, and every value must be finite. The values
// decode straight into params' storage: each tensor's slice is handed to
// gob with its length as its capacity, so gob fills it in place and
// allocates only for a tensor longer than the model's, which then fails
// the shape check. A failed load may therefore leave params partly
// written; loaders decode into a freshly built model and drop it on
// error.
func LoadParams(r io.Reader, params []*Param) error {
	in := make([]savedTensor, len(params))
	for i, p := range params {
		in[i].Data = p.Val.Data[:0:len(p.Val.Data)]
	}
	if err := gob.NewDecoder(r).Decode(&in); err != nil {
		return fmt.Errorf("nn: decode params: %w", err)
	}
	if len(in) != len(params) {
		return fmt.Errorf("nn: saved model has %d tensors, model expects %d", len(in), len(params))
	}
	for i, st := range in {
		p := params[i]
		if st.Rows != p.Val.Rows || st.Cols != p.Val.Cols || len(st.Data) != len(p.Val.Data) {
			return fmt.Errorf("nn: tensor %d shape %dx%d (%d values), model expects %dx%d",
				i, st.Rows, st.Cols, len(st.Data), p.Val.Rows, p.Val.Cols)
		}
		for j, v := range st.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: tensor %d value %d is %v", i, j, v)
			}
		}
	}
	return nil
}
