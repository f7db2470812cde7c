package cluster

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
	"unicode/utf8"

	"github.com/zeroshot-db/zeroshot/internal/serving"
)

// This file is the serving shim's hand codec: the request bodies wire.go
// declares are read, and the predict replies written, without
// reflection. encoding/json stays the specification. DecodeBody accepts
// a strict subset of what json.Decoder.Decode accepts and must then
// produce the same value; AppendJSON must write exactly what
// json.Encoder.Encode writes. Each says no (false) to anything outside
// its subset, and the caller replays the input through encoding/json,
// which also owns every error text. HTTPBackend and the what-if report
// stay on encoding/json: neither showed a measurable gain from the
// codec.

// DecodeBody decodes the JSON object at the start of b into v, one of
// *PredictRequest, *PredictBatchRequest, *WhatIfRequest or
// *FeedbackRequest, and reports whether it did. Bytes after the object are
// ignored, as json.Decoder ignores them. It returns false, leaving v
// untouched, for any other type and for anything outside the subset:
// null, a member name that is not exactly a field's tag, a repeated
// member, a surrogate escape, invalid UTF-8, a wrongly typed value or
// malformed input. Decoded strings never alias b.
func DecodeBody(b []byte, v any) bool {
	d := &decoder{b: b}
	switch v := v.(type) {
	case *PredictRequest:
		var x PredictRequest
		return d.predictRequest(&x) && set(v, x)
	case *PredictBatchRequest:
		var x PredictBatchRequest
		return d.predictBatchRequest(&x) && set(v, x)
	case *WhatIfRequest:
		var x WhatIfRequest
		return d.whatIfRequest(&x) && set(v, x)
	case *FeedbackRequest:
		var x FeedbackRequest
		return d.feedbackRequest(&x) && set(v, x)
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

// number returns the literal of a number that passes JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *decoder) number() ([]byte, bool) {
	d.ws()
	b, start := d.b, d.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if i++; i >= len(b) || !isDigit(b[i]) {
			return nil, false
		}
		i = digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return nil, false
		}
		i = digits(b, i)
	}
	d.i = i
	return b[start:i], true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// float decodes a number as encoding/json does into a float64: the
// literal through strconv.ParseFloat, out of range refused.
func (d *decoder) float(dst *float64) bool {
	lit, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return false
	}
	*dst = f
	return true
}

// int decodes a number into an int: the literal must be an integer that
// fits, as strconv.ParseInt reads it for encoding/json.
func (d *decoder) int(dst *int) bool {
	lit, ok := d.number()
	if !ok {
		return false
	}
	n, err := strconv.Atoi(string(lit))
	if err != nil {
		return false
	}
	*dst = n
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

func (d *decoder) whatIfRequest(x *WhatIfRequest) bool {
	var seen uint
	return d.object(func(name []byte) bool {
		switch string(name) {
		case "db":
			return once(&seen, 1) && d.str(&x.DB)
		case "model":
			return once(&seen, 2) && d.str(&x.Model)
		case "sql":
			return once(&seen, 4) && d.strs(&x.SQL)
		case "candidates":
			return once(&seen, 8) && d.strs(&x.Candidates)
		case "max_candidates":
			return once(&seen, 16) && d.int(&x.MaxCandidates)
		}
		return false
	})
}

func (d *decoder) feedbackRequest(x *FeedbackRequest) bool {
	var seen uint
	return d.object(func(name []byte) bool {
		switch string(name) {
		case "db":
			return once(&seen, 1) && d.str(&x.DB)
		case "fingerprint":
			return once(&seen, 2) && d.str(&x.Fingerprint)
		case "sql":
			return once(&seen, 4) && d.str(&x.SQL)
		case "actual_runtime_sec":
			return once(&seen, 8) && d.float(&x.ActualRuntimeSec)
		}
		return false
	})
}

// AppendJSON appends to dst exactly the bytes json.NewEncoder(w).Encode(v)
// writes, trailing newline included, for v a serving.Prediction or a
// PredictBatchReply. It returns dst unchanged and false for any other
// type, and where the encoder fails: on NaN or ±Inf.
func AppendJSON(dst []byte, v any) ([]byte, bool) {
	e := encoder{b: dst}
	switch v := v.(type) {
	case serving.Prediction:
		e.prediction(v)
	case PredictBatchReply:
		e.predictBatchReply(v)
	default:
		return dst, false
	}
	if e.bad {
		return dst, false
	}
	return append(e.b, '\n'), true
}

// encoder writes encoding/json's bytes for the predict replies: fields
// in declaration order, omitempty honoured, a nil slice as null,
// HTML-safe string escapes and the ES6 float format.
type encoder struct {
	b []byte
	// bad records a value encoding/json refuses (NaN, ±Inf).
	bad bool
}

// key writes a member name: the comma unless the object just opened,
// then "name":.
func (e *encoder) key(name string) {
	if e.b[len(e.b)-1] != '{' {
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, '"', ':')
}

const hexDigits = "0123456789abcdef"

// str writes s as encoding/json does with HTML escaping on: <, > and &
// as \u003c, \u003e and \u0026, U+2028 and U+2029 escaped, and each
// byte of invalid UTF-8 as \ufffd.
func (e *encoder) str(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}

// float writes f as encoding/json's float64 encoder does: 'f' format,
// 'e' below 1e-6 and from 1e21 on, with e-09 shortened to e-9.
func (e *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	e.b = b
}

func (e *encoder) int(n int) { e.b = strconv.AppendInt(e.b, int64(n), 10) }

// The member writers: "name":value.

func (e *encoder) strMember(name, s string) {
	e.key(name)
	e.str(s)
}

func (e *encoder) floatMember(name string, f float64) {
	e.key(name)
	e.float(f)
}

func (e *encoder) intMember(name string, n int) {
	e.key(name)
	e.int(n)
}

func (e *encoder) prediction(p serving.Prediction) {
	e.b = append(e.b, '{')
	e.strMember("db", p.Database)
	e.strMember("model", p.Model)
	e.floatMember("runtime_sec", p.RuntimeSec)
	e.floatMember("optimizer_cost", p.OptimizerCost)
	e.floatMember("est_rows", p.EstRows)
	e.strMember("fingerprint", p.Fingerprint)
	e.key("plan_cached")
	e.b = strconv.AppendBool(e.b, p.PlanCached)
	e.b = append(e.b, '}')
}

func (e *encoder) predictBatchReply(r PredictBatchReply) {
	e.b = append(e.b, '{')
	e.strMember("db", r.DB)
	e.strMember("model", r.Model)
	// A batch reply's items are the encoder's hottest loop: each writes
	// its first member without key's comma test.
	e.key("results")
	if r.Results == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i, item := range r.Results {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, '{')
			if item.RuntimeSec != 0 {
				e.b = append(e.b, `"runtime_sec":`...)
				e.float(item.RuntimeSec)
			}
			if item.Error != "" {
				e.key("error")
				e.str(item.Error)
			}
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	e.intMember("count", r.Count)
	e.intMember("errors", r.Errors)
	e.b = append(e.b, '}')
}
