package bundle

import (
	"context"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
)

// MaxPayload and MaxManifest are the caps on a bundle's model entry
// and on its manifest entry and tail.
const (
	MaxPayload  = costmodel.MaxFileSize
	MaxManifest = maxManifest
)

// Dir returns the backing directory, so tests can plant foreign files
// beside the revisions.
func (s *DirStore) Dir() string { return s.dir }

// Last returns the manifest at the store head and whether the store
// holds one: after a Publish by the store's one Publisher, the manifest
// that Publish wrote.
func (p *Publisher) Last() (Manifest, bool) {
	ctx := context.Background()
	head, err := p.store.Latest(ctx)
	if err != nil {
		return Manifest{}, false
	}
	man, err := FetchManifest(ctx, p.store, head)
	return man, err == nil
}
