package costmodel

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Canonical registry names of the built-in estimators.
const (
	NameZeroShot   = "zeroshot"
	NameMSCN       = "mscn"
	NameE2E        = "e2e"
	NameScaledCost = "scaledcost"
)

// Factory constructs and reconstructs one estimator kind.
type Factory struct {
	// New builds a fresh, untrained estimator from options.
	New func(opts Options) (Estimator, error)
	// Load reconstructs a trained estimator from a payload written by
	// Estimator.Save.
	Load func(r io.Reader) (Estimator, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register adds an estimator factory under a unique name. It panics on a
// duplicate or incomplete registration — registration happens in package
// init, where a bad registry is a programming error.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if name == "" || f.New == nil || f.Load == nil {
		panic("costmodel: Register requires a name and New/Load functions")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("costmodel: estimator %q registered twice", name))
	}
	registry[name] = f
}

// New builds a fresh estimator by registry name.
func New(name string, opts Options) (Estimator, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("costmodel: unknown estimator %q (have %v)", name, Names())
	}
	return f.New(opts)
}

// Names lists the registered estimator names in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MaxFileSize caps a model file: Load reads no further, and a bundle
// refuses a model entry larger. The largest file nn.MaxWidth allows is
// a zero-shot model at width 512: 21 380 329 bytes (MSCN at that width
// is 15 000 968, E2E 12 514 092). 32 MiB is about 1.57 times that.
const MaxFileSize = 32 << 20

// fileMagic guards against feeding arbitrary gob streams into Load.
const fileMagic = "zsdb-costmodel/v1"

// fileHeader is the self-describing prefix of every saved estimator.
type fileHeader struct {
	Magic string
	Name  string
}

// Save writes a self-describing model file: a header naming the estimator,
// followed by the estimator's own payload. Files written by Save are
// reconstructed by Load with no further caller input.
func Save(w io.Writer, est Estimator) error {
	hdr := fileHeader{Magic: fileMagic, Name: est.Name()}
	if err := gob.NewEncoder(w).Encode(hdr); err != nil {
		return fmt.Errorf("costmodel: encode header: %w", err)
	}
	return est.Save(w)
}

// Load reads a model file written by Save, dispatching to the registered
// factory named in the header. It reads at most MaxFileSize bytes of r;
// a file that needs more fails with an error naming the cap.
func Load(r io.Reader) (Estimator, error) {
	lr := &io.LimitedReader{R: r, N: MaxFileSize + 1}
	// Model files stack several gob streams (header, adapter header,
	// parameters), each read by its own decoder. gob wraps readers that
	// lack ReadByte in an internal bufio.Reader which over-reads past its
	// message — so share one ByteReader across all decoders.
	est, err := load(bufio.NewReader(lr))
	if err != nil && lr.N == 0 {
		return nil, fmt.Errorf("costmodel: model file exceeds the %d-byte cap", MaxFileSize)
	}
	return est, err
}

func load(r *bufio.Reader) (Estimator, error) {
	var hdr fileHeader
	if err := gob.NewDecoder(r).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("costmodel: decode header: %w", err)
	}
	if hdr.Magic != fileMagic {
		return nil, fmt.Errorf("costmodel: not a model file (magic %q)", hdr.Magic)
	}
	regMu.RLock()
	f, ok := registry[hdr.Name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("costmodel: file names unknown estimator %q (have %v)", hdr.Name, Names())
	}
	est, err := f.Load(r)
	if err != nil {
		return nil, fmt.Errorf("costmodel: load %s: %w", hdr.Name, err)
	}
	return est, nil
}
