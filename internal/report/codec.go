package report

// The relperf/result/v1 codec: a reflection-free encoder and a strict
// positional decoder for ResultJSON. The encoder writes exactly the bytes
// encoding/json writes for the struct — field order, omitempty, null for a
// nil slice or pointer, HTML-escaped strings, its float spelling — so
// documents stored before the codec existed stay byte-identical. The
// decoder accepts fields only in that order, and Canonical, the one intake
// check, refuses any document that does not re-encode to its own bytes:
// whitespace, a respelled number, an escape encoding/json would not write,
// a duplicate or unknown field.

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"relperf/internal/core"
	"relperf/internal/decision"
	"relperf/internal/measure"
	"relperf/internal/stats"
)

// MarshalResult returns the canonical compact encoding of the result.
func MarshalResult(r *ResultJSON) ([]byte, error) {
	if r.Schema == "" {
		r.Schema = ResultSchema
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	if err := e.result(r); err != nil {
		return nil, err
	}
	return bytes.Clone(e.b), nil
}

// UnmarshalResult parses and validates a document. It does not check that
// the document is canonical: every intake of stored, replicated or remote
// bytes goes through Canonical instead.
func UnmarshalResult(b []byte) (*ResultJSON, error) {
	r, err := decodeResult(b)
	if err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// Canonical is the intake check for result bytes that come from outside
// the process or from disk: it parses and validates blob, re-encodes the
// result and refuses blob unless the two are byte-identical. An accepted
// document is the one encoding of its result, so the byte-identity the
// store, the cache and the determinism contract compare on holds for it.
func Canonical(blob []byte) (*ResultJSON, error) {
	r, err := UnmarshalResult(blob)
	if err != nil {
		return nil, err
	}
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	if err := e.result(r); err != nil {
		return nil, err
	}
	if again := e.b; !bytes.Equal(again, blob) {
		i := 0
		for i < len(again) && i < len(blob) && again[i] == blob[i] {
			i++
		}
		return nil, fmt.Errorf("report: result JSON is not canonical: it differs from its re-encoding at byte %d", i)
	}
	return r, nil
}

// encoders keeps encoders with their grown buffers: Canonical compares
// in place and MarshalResult copies out an exactly sized result.
var encoders = sync.Pool{New: func() any { return new(encoder) }}

// encoder writes one document into b; the first error sticks. bin holds
// a sketch's binary form on its way to base64.
type encoder struct {
	b   []byte
	bin []byte
	err error
}

// result encodes r into e.b, replacing what e held.
func (e *encoder) result(r *ResultJSON) error {
	e.b, e.err = e.b[:0], nil
	e.raw(`{"schema":`)
	e.str(r.Schema)
	if r.Mode != "" {
		e.raw(`,"mode":`)
		e.str(r.Mode)
	}
	e.raw(`,"names":`)
	encList(e, r.Names, func(e *encoder, s *string) { e.str(*s) })
	if ss := r.Samples; ss != nil {
		e.raw(`,"samples":{"workload":`)
		e.str(ss.Workload)
		e.raw(`,"samples":`)
		encList(e, ss.Samples, func(e *encoder, s *measure.Sample) {
			e.raw(`{"name":`)
			e.str(s.Name)
			e.raw(`,"seconds":`)
			e.floats(s.Seconds)
			e.raw(`}`)
		})
		e.raw(`}`)
	}
	if ss := r.Sketches; ss != nil {
		e.raw(`,"sketches":{"workload":`)
		e.str(ss.Workload)
		e.raw(`,"sketches":`)
		encList(e, ss.Sketches, func(e *encoder, s *measure.SketchSample) {
			e.raw(`{"name":`)
			e.str(s.Name)
			e.raw(`,"sketch":`)
			e.sketch(s.Sketch)
			e.raw(`}`)
		})
		e.raw(`}`)
	}
	if r.ErrorBound != 0 {
		e.raw(`,"error_bound":`)
		e.float(r.ErrorBound)
	}
	e.raw(`,"clusters":`)
	if c := r.Clusters; c == nil {
		e.raw(`null`)
	} else {
		e.raw(`{"p":`)
		e.int(int64(c.P))
		e.raw(`,"reps":`)
		e.int(int64(c.Reps))
		e.raw(`,"scores":`)
		encList(e, c.Scores, func(e *encoder, row *[]float64) { e.floats(*row) })
		e.raw(`,"clusters":`)
		encList(e, c.Clusters, (*encoder).members)
		e.raw(`,"k":`)
		e.int(int64(c.K))
		e.raw(`,"mean_k":`)
		e.float(c.MeanK)
		e.raw(`}`)
	}
	e.raw(`,"final":`)
	if f := r.Final; f == nil {
		e.raw(`null`)
	} else {
		e.raw(`{"rank":`)
		encList(e, f.Rank, func(e *encoder, v *int) { e.int(int64(*v)) })
		e.raw(`,"score":`)
		e.floats(f.Score)
		e.raw(`,"k":`)
		e.int(int64(f.K))
		e.raw(`,"classes":`)
		encList(e, f.Classes, (*encoder).members)
		e.raw(`}`)
	}
	e.raw(`,"profiles":`)
	encList(e, r.Profiles, func(e *encoder, p *decision.AlgorithmProfile) {
		e.raw(`{"name":`)
		e.str(p.Name)
		e.raw(`,"rank":`)
		e.int(int64(p.Rank))
		e.raw(`,"score":`)
		e.float(p.Score)
		e.raw(`,"mean_seconds":`)
		e.float(p.MeanSeconds)
		e.raw(`,"edge_flops":`)
		e.int(p.EdgeFlops)
		e.raw(`,"accel_flops":`)
		e.int(p.AccelFlops)
		e.raw(`,"edge_joules":`)
		e.float(p.EdgeJoules)
		e.raw(`,"accel_joules":`)
		e.float(p.AccelJoules)
		e.raw(`,"accel_seconds":`)
		e.float(p.AccelSeconds)
		e.raw(`}`)
	})
	e.raw(`}`)
	return e.err
}

// encList writes xs as a JSON array, or null when xs is nil.
func encList[T any](e *encoder, xs []T, elem func(*encoder, *T)) {
	if xs == nil {
		e.raw(`null`)
		return
	}
	e.b = append(e.b, '[')
	for i := range xs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		elem(e, &xs[i])
	}
	e.b = append(e.b, ']')
}

func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

func (e *encoder) int(v int64) { e.b = strconv.AppendInt(e.b, v, 10) }

func (e *encoder) floats(xs []float64) {
	encList(e, xs, func(e *encoder, v *float64) { e.float(*v) })
}

func (e *encoder) members(ms *[]core.Membership) {
	encList(e, *ms, func(e *encoder, m *core.Membership) {
		e.raw(`{"alg":`)
		e.int(int64(m.Alg))
		e.raw(`,"score":`)
		e.float(m.Score)
		e.raw(`}`)
	})
}

// float spells f as encoding/json does: the shortest round-trip decimal,
// in exponent form below 1e-6 and from 1e21 with a one-digit negative
// exponent written without its leading zero; NaN and ±Inf are refused.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("report: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

const hexDigits = "0123456789abcdef"

// str writes s as encoding/json does with HTML escaping: the two-character
// escapes for '"', '\\' and \b \f \n \r \t, \u00XX for the other control
// characters and for '<', '>' and '&', \ufffd for each invalid UTF-8 byte
// and \u2028 / \u2029 for the JavaScript line separators.
func (e *encoder) str(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
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
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
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
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
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

// sketch writes the base64 of the sketch's canonical binary form, or null.
func (e *encoder) sketch(s *stats.Sketch) {
	if s == nil {
		e.raw(`null`)
		return
	}
	bin, err := s.AppendBinary(e.bin[:0])
	if err != nil {
		if e.err == nil {
			e.err = err
		}
		return
	}
	e.bin = bin
	e.b = append(e.b, '"')
	e.b = base64.StdEncoding.AppendEncode(e.b, bin)
	e.b = append(e.b, '"')
}

// decoder reads one document in the encoder's field order; the first
// error sticks and every later read returns a zero value. bin holds a
// sketch's binary form on its way from base64 (stats.DecodeSketch copies
// out of it).
type decoder struct {
	b   []byte
	pos int
	bin []byte
	err error
}

func decodeResult(b []byte) (*ResultJSON, error) {
	d := &decoder{b: b}
	r := &ResultJSON{}
	d.lit(`{"schema":`)
	r.Schema = d.str()
	if d.opt(`,"mode":`) {
		r.Mode = d.str()
	}
	d.lit(`,"names":`)
	r.Names = decList(d, 4, func(d *decoder, s *string) { *s = d.str() })
	if d.opt(`,"samples":`) {
		ss := &measure.SampleSet{}
		d.lit(`{"workload":`)
		ss.Workload = d.str()
		d.lit(`,"samples":`)
		ss.Samples = decList(d, len(r.Names), func(d *decoder, s *measure.Sample) {
			d.lit(`{"name":`)
			s.Name = d.str()
			d.lit(`,"seconds":`)
			s.Seconds = d.floats()
			d.lit(`}`)
		})
		d.lit(`}`)
		r.Samples = ss
	}
	if d.opt(`,"sketches":`) {
		ss := &measure.SketchSet{}
		d.lit(`{"workload":`)
		ss.Workload = d.str()
		d.lit(`,"sketches":`)
		ss.Sketches = decList(d, len(r.Names), func(d *decoder, s *measure.SketchSample) {
			d.lit(`{"name":`)
			s.Name = d.str()
			d.lit(`,"sketch":`)
			s.Sketch = d.sketch()
			d.lit(`}`)
		})
		d.lit(`}`)
		r.Sketches = ss
	}
	if d.opt(`,"error_bound":`) {
		r.ErrorBound = d.float()
	}
	d.lit(`,"clusters":`)
	if !d.opt(`null`) {
		c := &core.ClusterResult{}
		d.lit(`{"p":`)
		c.P = d.int()
		d.lit(`,"reps":`)
		c.Reps = d.int()
		d.lit(`,"scores":`)
		c.Scores = decList(d, len(r.Names), func(d *decoder, row *[]float64) { *row = d.floats() })
		d.lit(`,"clusters":`)
		c.Clusters = decList(d, len(r.Names), (*decoder).members)
		d.lit(`,"k":`)
		c.K = d.int()
		d.lit(`,"mean_k":`)
		c.MeanK = d.float()
		d.lit(`}`)
		r.Clusters = c
	}
	d.lit(`,"final":`)
	if !d.opt(`null`) {
		f := &core.FinalAssignment{}
		d.lit(`{"rank":`)
		f.Rank = decList(d, len(r.Names), func(d *decoder, v *int) { *v = d.int() })
		d.lit(`,"score":`)
		f.Score = d.floats()
		d.lit(`,"k":`)
		f.K = d.int()
		d.lit(`,"classes":`)
		f.Classes = decList(d, len(r.Names), (*decoder).members)
		d.lit(`}`)
		r.Final = f
	}
	d.lit(`,"profiles":`)
	r.Profiles = decList(d, len(r.Names), func(d *decoder, p *decision.AlgorithmProfile) {
		d.lit(`{"name":`)
		p.Name = d.str()
		d.lit(`,"rank":`)
		p.Rank = d.int()
		d.lit(`,"score":`)
		p.Score = d.float()
		d.lit(`,"mean_seconds":`)
		p.MeanSeconds = d.float()
		d.lit(`,"edge_flops":`)
		p.EdgeFlops = d.int64()
		d.lit(`,"accel_flops":`)
		p.AccelFlops = d.int64()
		d.lit(`,"edge_joules":`)
		p.EdgeJoules = d.float()
		d.lit(`,"accel_joules":`)
		p.AccelJoules = d.float()
		d.lit(`,"accel_seconds":`)
		p.AccelSeconds = d.float()
		d.lit(`}`)
	})
	d.lit(`}`)
	if d.err == nil && d.pos != len(b) {
		d.fail("trailing data after the document")
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// decList reads a JSON array of elements (nil for null, empty for []),
// allocating room for n of them up front.
func decList[T any](d *decoder, n int, elem func(*decoder, *T)) []T {
	if d.opt(`null`) {
		return nil
	}
	d.lit(`[`)
	if d.err != nil || d.opt(`]`) {
		return []T{}
	}
	xs := make([]T, 0, n)
	for {
		var zero T
		xs = append(xs, zero)
		elem(d, &xs[len(xs)-1])
		if d.err != nil || !d.opt(`,`) {
			break
		}
	}
	d.lit(`]`)
	return xs
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("report: decoding result JSON at byte %d: %s", d.pos, fmt.Sprintf(format, args...))
	}
}

// opt consumes s if the input continues with it.
func (d *decoder) opt(s string) bool {
	if d.err != nil || len(d.b)-d.pos < len(s) || string(d.b[d.pos:d.pos+len(s)]) != s {
		return false
	}
	d.pos += len(s)
	return true
}

// lit consumes s or fails: the document is malformed, or out of the
// canonical field order or spacing.
func (d *decoder) lit(s string) {
	if !d.opt(s) {
		d.fail("not canonical: want %q", s)
	}
}

// numberByte marks the bytes a JSON number token is made of.
var numberByte = [256]bool{'0': true, '1': true, '2': true, '3': true, '4': true, '5': true,
	'6': true, '7': true, '8': true, '9': true, '-': true, '+': true, '.': true, 'e': true, 'E': true}

// number returns the bytes of the number token at the cursor.
func (d *decoder) number() []byte {
	if d.err != nil {
		return nil
	}
	start := d.pos
	for d.pos < len(d.b) && numberByte[d.b[d.pos]] {
		d.pos++
	}
	if d.pos == start {
		d.fail("want a number")
	}
	return d.b[start:d.pos]
}

func (d *decoder) float() float64 {
	tok := d.number()
	if d.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.pos -= len(tok)
		d.fail("%v", err)
	}
	return f
}

// maxFloatsHint caps the room floats reserves before parsing, so a run of
// bare commas cannot reserve more than a few kilobytes.
const maxFloatsHint = 512

// floats reads a number array, or nil for null. It reserves room for the
// elements whose commas lead the run of number bytes after '['. The run
// ends at this array's own ']', or where parsing will stop, so no byte is
// scanned ahead twice and decoding stays linear in the input.
func (d *decoder) floats() []float64 {
	n := 1
	if d.pos < len(d.b) && d.b[d.pos] == '[' {
		for _, c := range d.b[d.pos+1:] {
			if c == ',' {
				if n++; n == maxFloatsHint {
					break
				}
			} else if !numberByte[c] {
				break
			}
		}
	}
	return decList(d, n, func(d *decoder, v *float64) { *v = d.float() })
}

func (d *decoder) int64() int64 {
	tok := d.number()
	if d.err != nil {
		return 0
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		d.pos -= len(tok)
		d.fail("%v", err)
	}
	return v
}

func (d *decoder) int() int {
	v := d.int64()
	if int64(int(v)) != v {
		d.fail("%d overflows int", v)
	}
	return int(v)
}

func (d *decoder) members(ms *[]core.Membership) {
	*ms = decList(d, 1, func(d *decoder, m *core.Membership) {
		d.lit(`{"alg":`)
		m.Alg = d.int()
		d.lit(`,"score":`)
		m.Score = d.float()
		d.lit(`}`)
	})
}

// str reads a JSON string. It takes only the escapes the encoder writes;
// Canonical's re-encode refuses the rest of what it would misread, such
// as \u0008 for \b or an upper-case hex digit.
func (d *decoder) str() string {
	d.lit(`"`)
	if d.err != nil {
		return ""
	}
	start := d.pos
	for i := start; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			d.pos = i + 1
			return string(d.b[start:i])
		case c == '\\':
			d.pos = i
			return d.escaped(append([]byte(nil), d.b[start:i]...))
		case c < 0x20:
			d.pos = i
			d.fail("control character in string")
			return ""
		}
	}
	d.fail("unterminated string")
	return ""
}

// escaped finishes a string whose unescaped prefix is b.
func (d *decoder) escaped(b []byte) string {
	for d.pos < len(d.b) {
		c := d.b[d.pos]
		switch {
		case c == '"':
			d.pos++
			return string(b)
		case c < 0x20:
			d.fail("control character in string")
			return ""
		case c != '\\':
			b = append(b, c)
			d.pos++
			continue
		}
		if d.pos+1 >= len(d.b) {
			break
		}
		switch esc := d.b[d.pos+1]; esc {
		case '"', '\\':
			b = append(b, esc)
		case 'b':
			b = append(b, '\b')
		case 'f':
			b = append(b, '\f')
		case 'n':
			b = append(b, '\n')
		case 'r':
			b = append(b, '\r')
		case 't':
			b = append(b, '\t')
		case 'u':
			if d.pos+6 > len(d.b) {
				d.fail("truncated \\u escape")
				return ""
			}
			v, err := strconv.ParseUint(string(d.b[d.pos+2:d.pos+6]), 16, 16)
			if err != nil || !escapedRune(rune(v)) {
				d.fail("not canonical: \\u%s", d.b[d.pos+2:d.pos+6])
				return ""
			}
			b = utf8.AppendRune(b, rune(v))
			d.pos += 4
		default:
			d.fail("bad escape \\%c", esc)
			return ""
		}
		d.pos += 2
	}
	d.fail("unterminated string")
	return ""
}

// escapedRune reports whether the encoder writes r as a \u escape.
func escapedRune(r rune) bool {
	return r < 0x20 || r == '<' || r == '>' || r == '&' || r == '\u2028' || r == '\u2029' || r == utf8.RuneError
}

// sketch reads a base64 sketch string through stats.DecodeSketch, or nil
// for null.
func (d *decoder) sketch() *stats.Sketch {
	if d.opt(`null`) {
		return nil
	}
	d.lit(`"`)
	if d.err != nil {
		return nil
	}
	end := bytes.IndexByte(d.b[d.pos:], '"')
	if end < 0 {
		d.fail("unterminated sketch string")
		return nil
	}
	var err error
	d.bin, err = base64.StdEncoding.AppendDecode(d.bin[:0], d.b[d.pos:d.pos+end])
	if err != nil {
		d.fail("sketch base64: %v", err)
		return nil
	}
	s, err := stats.DecodeSketch(d.bin)
	if err != nil {
		d.fail("%v", err)
		return nil
	}
	d.pos += end + 1
	return s
}
