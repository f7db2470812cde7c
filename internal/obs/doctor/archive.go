package doctor

import (
	"archive/tar"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path"
)

// archiveMeta is the on-disk meta.json: the manifest plus every
// document's capture status, so an archive is self-describing even for
// the documents that have no body member.
type archiveMeta struct {
	Meta
	// Docs records each capture attempt: Docs[target][doc].
	Docs map[string]map[string]*Doc `json:"docs"`
}

// WriteArchive streams the bundle as a gzip'd tar: meta.json first,
// then targets/<target>/<doc>.json for every successfully captured
// document.
func WriteArchive(w io.Writer, b *Bundle) error {
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)

	am := archiveMeta{Meta: b.Meta, Docs: map[string]map[string]*Doc{}}
	for i := range b.Captures {
		cap := &b.Captures[i]
		am.Docs[cap.Target.Name] = cap.Docs
	}
	meta, err := json.MarshalIndent(am, "", "  ")
	if err != nil {
		return err
	}
	if err := writeMember(tw, "meta.json", meta); err != nil {
		return err
	}
	for i := range b.Captures {
		cap := &b.Captures[i]
		for _, ep := range Endpoints {
			d := cap.Docs[ep.Name]
			if d == nil || d.Body == nil {
				continue
			}
			if err := writeMember(tw, memberName(cap.Target.Name, ep.Name), d.Body); err != nil {
				return err
			}
		}
	}
	if err := tw.Close(); err != nil {
		return err
	}
	return gz.Close()
}

// memberName is the archive member holding one target's document body,
// for writer and reader alike: target names are often URLs, and whatever
// path.Join makes of their slashes both sides must make the same.
func memberName(target, doc string) string {
	return path.Join("targets", target, doc+".json")
}

func writeMember(tw *tar.Writer, name string, body []byte) error {
	hdr := &tar.Header{Name: name, Mode: 0o644, Size: int64(len(body))}
	if err := tw.WriteHeader(hdr); err != nil {
		return err
	}
	_, err := tw.Write(body)
	return err
}

// ErrTooManyMembers rejects an archive holding more members than its
// meta.json accounts for: every member is read into memory, so their
// number needs a bound as each one's size does (maxDocBytes).
var ErrTooManyMembers = errors.New("doctor: archive has too many members")

// memberSlack is how many members an archive may hold beyond one body
// per target and endpoint — meta.json, and what a hand-repacked archive
// picks up — and all that may precede meta.json, which is written first.
const memberSlack = 8

// ReadArchive reconstructs a bundle from a saved archive. Analysis of
// the result is byte-identical to analyzing the live collection the
// archive was written from.
func ReadArchive(r io.Reader) (*Bundle, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("doctor: open archive: %w", err)
	}
	defer gz.Close()
	tr := tar.NewReader(gz)

	var am *archiveMeta
	bodies := map[string][]byte{} // by member name
	limit := memberSlack
	for members := 1; ; members++ {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("doctor: read archive: %w", err)
		}
		if members > limit {
			return nil, fmt.Errorf("%w (limit %d)", ErrTooManyMembers, limit)
		}
		data, err := io.ReadAll(io.LimitReader(tr, maxDocBytes))
		if err != nil {
			return nil, fmt.Errorf("doctor: read %s: %w", hdr.Name, err)
		}
		if hdr.Name != "meta.json" {
			bodies[hdr.Name] = data
			continue
		}
		am = &archiveMeta{}
		if err := json.Unmarshal(data, am); err != nil {
			return nil, fmt.Errorf("doctor: parse meta.json: %w", err)
		}
		limit = len(am.Meta.Targets)*len(Endpoints) + memberSlack
	}
	if am == nil {
		return nil, fmt.Errorf("doctor: archive has no meta.json")
	}

	b := &Bundle{Meta: am.Meta}
	for _, t := range am.Meta.Targets {
		cap := Capture{Target: t, Docs: map[string]*Doc{}}
		for name, d := range am.Docs[t.Name] {
			if d == nil {
				continue // a null entry records no attempt
			}
			if d.Name == "" {
				d.Name = name
			}
			if body, ok := bodies[memberName(t.Name, name)]; ok {
				d.Body = body
			}
			cap.Docs[name] = d
		}
		b.Captures = append(b.Captures, cap)
	}
	return b, nil
}
