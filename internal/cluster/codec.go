package cluster

import (
	"encoding/binary"
	"math/bits"
	"unicode/utf8"
)

// This file is the serving shim's hand decoder for the two bodies the
// predict routes read hot, PredictRequest and PredictBatchRequest: a
// 256-statement batch body decodes several times faster than through
// json.Decoder. encoding/json stays the specification. DecodeBody
// accepts a strict subset of what json.Decoder.Decode accepts and must
// then produce the same value; it says no (false) to anything outside
// that subset, and the caller replays the input through encoding/json,
// which also owns every error text. Every other body, and every reply,
// goes through encoding/json alone: a hand encoder and decoders for the
// what-if and feedback bodies showed no end-to-end gain.

// DecodeBody decodes the JSON object at the start of b into v, a
// *PredictRequest or a *PredictBatchRequest, and reports whether it did.
// Bytes after the object are ignored, as json.Decoder ignores them. It
// returns false, leaving v untouched, for any other type and for
// anything outside the subset: null, a member name that is not exactly a
// field's tag, a repeated member, a surrogate escape, invalid UTF-8, a
// wrongly typed value or malformed input. Decoded strings never alias b.
func DecodeBody(b []byte, v any) bool {
	d := &decoder{b: b}
	switch v := v.(type) {
	case *PredictRequest:
		var x PredictRequest
		return d.predictRequest(&x) && set(v, x)
	case *PredictBatchRequest:
		var x PredictBatchRequest
		return d.predictBatchRequest(&x) && set(v, x)
	}
	return false
}

// set stores a value decoded in full.
func set[T any](v *T, x T) bool {
	*v = x
	return true
}

// decoder reads one value from b at i. Every method skips the
// whitespace before its token and reports whether the input is inside
// the subset; after a false the position is meaningless.
type decoder struct {
	b []byte
	i int
	// esc collects a string that has escapes, reused within one body.
	esc []byte
}

func (d *decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// byte consumes c.
func (d *decoder) byte(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// object reads an object, handing each member's name to member, which
// decodes the value and reports false for a name that is not exactly a
// field's tag. A name must be plain ASCII without escapes, as every tag
// is.
func (d *decoder) object(member func(name []byte) bool) bool {
	if !d.byte('{') {
		return false
	}
	if d.byte('}') {
		return true
	}
	for {
		if !d.byte('"') {
			return false
		}
		start := d.i
		for d.i < len(d.b) && d.b[d.i] != '"' {
			if c := d.b[d.i]; c < ' ' || c == '\\' || c >= utf8.RuneSelf {
				return false
			}
			d.i++
		}
		if d.i >= len(d.b) {
			return false
		}
		name := d.b[start:d.i]
		d.i++
		if !d.byte(':') || !member(name) {
			return false
		}
		if d.byte('}') {
			return true
		}
		if !d.byte(',') {
			return false
		}
	}
}

// once marks the field bit as read; a repeated member is outside the
// subset (encoding/json lets the last one win).
func once(seen *uint, bit uint) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// plain returns the end of the run of plain bytes starting at i: the
// index of the first '"', '\\', control or non-ASCII byte, or len(b).
// It tests eight bytes per step.
func plain(b []byte, i int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; i+8 <= len(b); i += 8 {
		x := binary.LittleEndian.Uint64(b[i:])
		quote, backslash := x^(ones*'"'), x^(ones*'\\')
		// x's own high bits mark the non-ASCII bytes; the "has a byte
		// less than n" and "has a zero byte" tricks mark the control
		// bytes, quotes and backslashes. A borrow can mark a byte above a
		// special one but never below it, so the lowest mark is the first
		// special byte.
		special := (x | (x-ones*' ')&^x | (quote-ones)&^quote | (backslash-ones)&^backslash) & highs
		if special != 0 {
			return i + bits.TrailingZeros64(special)/8
		}
	}
	for i < len(b) {
		if c := b[i]; c < ' ' || c == '"' || c == '\\' || c >= utf8.RuneSelf {
			break
		}
		i++
	}
	return i
}

// str decodes a string into a fresh string.
func (d *decoder) str(dst *string) bool {
	d.ws()
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		return false
	}
	d.i++
	start := d.i
	for {
		d.i = plain(d.b, d.i)
		if d.i >= len(d.b) {
			return false
		}
		switch c := d.b[d.i]; {
		case c == '"':
			*dst = string(d.b[start:d.i])
			d.i++
			return true
		case c == '\\':
			return d.escaped(dst, start)
		case c < ' ':
			return false
		default:
			if !d.rune() {
				return false
			}
		}
	}
}

// rune steps over one valid multi-byte UTF-8 sequence.
func (d *decoder) rune() bool {
	r, size := utf8.DecodeRune(d.b[d.i:])
	if r == utf8.RuneError && size == 1 {
		return false
	}
	d.i += size
	return true
}

// escaped finishes a string from its first backslash on; the string's
// plain prefix starts at start.
func (d *decoder) escaped(dst *string, start int) bool {
	out := append(d.esc[:0], d.b[start:d.i]...)
	for {
		j := plain(d.b, d.i)
		out = append(out, d.b[d.i:j]...)
		if d.i = j; d.i >= len(d.b) {
			return false
		}
		switch c := d.b[d.i]; {
		case c == '"':
			*dst = string(out)
			d.esc = out
			d.i++
			return true
		case c == '\\':
			if d.i+1 >= len(d.b) {
				return false
			}
			e := d.b[d.i+1]
			d.i += 2
			switch e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := d.hex4()
				if !ok || 0xd800 <= r && r < 0xe000 {
					return false
				}
				out = utf8.AppendRune(out, r)
			default:
				return false
			}
		case c < ' ':
			return false
		default:
			from := d.i
			if !d.rune() {
				return false
			}
			out = append(out, d.b[from:d.i]...)
		}
	}
}

// hex4 reads the four hex digits of a \u escape.
func (d *decoder) hex4() (rune, bool) {
	if d.i+4 > len(d.b) {
		return 0, false
	}
	var r rune
	for _, c := range d.b[d.i : d.i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	d.i += 4
	return r, true
}

// strs decodes an array of strings. An empty array is an empty, non-nil
// slice, as encoding/json makes it.
func (d *decoder) strs(dst *[]string) bool {
	if !d.byte('[') {
		return false
	}
	out := []string{}
	for n := 0; !d.byte(']'); n++ {
		if n > 0 && !d.byte(',') {
			return false
		}
		var s string
		if !d.str(&s) {
			return false
		}
		out = append(out, s)
	}
	*dst = out
	return true
}

func (d *decoder) predictRequest(x *PredictRequest) bool {
	var seen uint
	return d.object(func(name []byte) bool {
		switch string(name) {
		case "db":
			return once(&seen, 1) && d.str(&x.DB)
		case "model":
			return once(&seen, 2) && d.str(&x.Model)
		case "sql":
			return once(&seen, 4) && d.str(&x.SQL)
		}
		return false
	})
}

func (d *decoder) predictBatchRequest(x *PredictBatchRequest) bool {
	var seen uint
	return d.object(func(name []byte) bool {
		switch string(name) {
		case "db":
			return once(&seen, 1) && d.str(&x.DB)
		case "model":
			return once(&seen, 2) && d.str(&x.Model)
		case "sql":
			return once(&seen, 4) && d.strs(&x.SQL)
		}
		return false
	})
}
