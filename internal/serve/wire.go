package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// The /predict wire path. encoding/json defines the wire format: it is
// the decoder of every request body the strict scanner below does not
// accept, and its Encoder is what every response must equal byte for
// byte. The scanner and the appender only take the common, canonical
// shapes off encoding/json's reflection path; anything unusual falls
// back to encoding/json, so errors and edge cases are its own.

// maxBody caps request bodies; maxPooledBuf is the largest buffer put
// back in bufPool, so one big body does not pin its memory.
const (
	maxBody      = 1 << 20
	maxPooledBuf = 64 << 10
)

// bufPool holds the byte buffers a request body is read into and its
// response is appended to.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		bufPool.Put(bp)
	}
}

// readBody reads the whole request body, capped at maxBody, into a
// pooled buffer. The caller owns the buffer until it hands it to
// putBuf.
func readBody(w http.ResponseWriter, r *http.Request) (*[]byte, error) {
	bp := bufPool.Get().(*[]byte)
	b := (*bp)[:0]
	rd := http.MaxBytesReader(w, r.Body, maxBody)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := rd.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			*bp = b
			putBuf(bp)
			return nil, fmt.Errorf("bad request body: %v", err)
		}
	}
	*bp = b
	return bp, nil
}

// decodeJSON parses a request body strictly: unknown fields are errors
// (they are always typos of tuning knobs) and anything after the one
// JSON value is an error.
func decodeJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("bad request body: data after the JSON value")
	}
	return nil
}

// decodePredict decodes a /predict body: with scanPredict when the body
// is canonical, with decodeJSON otherwise.
func decodePredict(body []byte, req *PredictRequest) error {
	if scanPredict(body, req) {
		return nil
	}
	*req = PredictRequest{}
	return decodeJSON(body, req)
}

// scanPredict decodes a canonical PredictRequest body in one pass and
// reports whether it could. Canonical means: one object whose keys are
// PredictRequest's exact lowercase names, each at most once; strings of
// printable ASCII without escapes; integers -?(0|[1-9][0-9]*) that fit
// their field; true or false; only whitespace after the object. On any
// other body (which encoding/json may accept or reject) it returns
// false with req partly written.
func scanPredict(body []byte, req *PredictRequest) bool {
	p := scanner{b: body}
	if !p.eat('{') {
		return false
	}
	if p.eat('}') {
		return p.atEnd()
	}
	var seen uint8
	for {
		key, ok := p.str()
		if !ok || !p.eat(':') {
			return false
		}
		var bit uint8
		switch string(key) {
		case "app":
			bit = 1 << 0
			req.App, ok = p.strVal()
		case "config":
			bit = 1 << 1
			req.Config, ok = p.strVal()
		case "scale":
			bit = 1 << 2
			req.Scale, ok = p.strVal()
		case "seed":
			bit = 1 << 3
			var v uint64
			v, ok = p.uint64()
			req.Seed = &v
		case "dist":
			bit = 1 << 4
			req.Dist, ok = p.ints()
		case "detailed":
			bit = 1 << 5
			req.Detailed, ok = p.boolean()
		case "timeout_ms":
			bit = 1 << 6
			req.TimeoutMS, ok = p.int64()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if p.eat(',') {
			continue
		}
		return p.eat('}') && p.atEnd()
	}
}

// scanner walks a JSON body for scanPredict.
type scanner struct {
	b []byte
	i int
}

func (p *scanner) skipSpace() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c after optional whitespace.
func (p *scanner) eat(c byte) bool {
	p.skipSpace()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *scanner) atEnd() bool {
	p.skipSpace()
	return p.i == len(p.b)
}

// str consumes a string of printable ASCII without escapes and returns
// its contents, which alias the body.
func (p *scanner) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	for j := p.i; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '"':
			s := p.b[p.i:j]
			p.i = j + 1
			return s, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (p *scanner) strVal() (string, bool) {
	s, ok := p.str()
	return string(s), ok
}

// integer consumes -?(0|[1-9][0-9]*) and returns its sign and
// magnitude; a magnitude above MaxUint64 is not accepted. What follows
// the digits is left to the caller's next token, so a fraction or an
// exponent fails there.
func (p *scanner) integer() (neg bool, mag uint64, ok bool) {
	p.skipSpace()
	if p.i < len(p.b) && p.b[p.i] == '-' {
		neg = true
		p.i++
	}
	start := p.i
	for ; p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9'; p.i++ {
		d := uint64(p.b[p.i] - '0')
		if mag > (math.MaxUint64-d)/10 {
			return false, 0, false
		}
		mag = mag*10 + d
	}
	n := p.i - start
	return neg, mag, n == 1 || (n > 1 && p.b[start] != '0')
}

// uint64 refuses any sign, as encoding/json refuses "-0" for a uint64.
func (p *scanner) uint64() (uint64, bool) {
	neg, mag, ok := p.integer()
	return mag, ok && !neg
}

func (p *scanner) int64() (int64, bool) {
	neg, mag, ok := p.integer()
	switch {
	case !ok:
		return 0, false
	case neg:
		// -mag wraps to the two's-complement of mag, exact down to MinInt64.
		return int64(-mag), mag <= 1<<63
	default:
		return int64(mag), mag <= math.MaxInt64
	}
}

// ints consumes an array of integers that fit int. An empty array
// decodes to an empty, non-nil slice, as encoding/json does.
func (p *scanner) ints() ([]int, bool) {
	if !p.eat('[') {
		return nil, false
	}
	out := make([]int, 0, 16)
	if p.eat(']') {
		return out, true
	}
	for {
		v, ok := p.int64()
		if !ok || v != int64(int(v)) {
			return nil, false
		}
		out = append(out, int(v))
		if p.eat(',') {
			continue
		}
		return out, p.eat(']')
	}
}

func (p *scanner) boolean() (bool, bool) {
	p.skipSpace()
	rest := p.b[p.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		p.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		p.i += 5
		return false, true
	}
	return false, false
}

// writePredict writes resp as json.Encoder would, appending it into the
// pooled buffer bp. A value the appender cannot render identically — a
// NaN or infinite float, or a string that needs escaping — goes through
// writeJSON instead.
func writePredict(w http.ResponseWriter, bp *[]byte, resp *PredictResponse) {
	e := jsonAppender{b: (*bp)[:0], ok: true}
	e.predictResponse(resp)
	*bp = e.b
	if !e.ok {
		writeJSON(w, resp)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(e.b)
}

// jsonAppender appends JSON the way encoding/json encodes it; ok turns
// false at the first value it cannot render identically.
type jsonAppender struct {
	b  []byte
	ok bool
}

// predictResponse follows PredictResponse's field order, tags and
// omitempty rules, and ends with the Encoder's newline.
func (e *jsonAppender) predictResponse(r *PredictResponse) {
	e.b = append(e.b, `{"program":`...)
	e.str(r.Program)
	e.b = append(e.b, `,"dist":`...)
	e.ints(r.Dist)
	e.b = append(e.b, `,"iterations":`...)
	e.b = strconv.AppendInt(e.b, int64(r.Iterations), 10)
	e.b = append(e.b, `,"total_s":`...)
	e.float(r.TotalS)
	if r.PerIterationS != 0 {
		e.b = append(e.b, `,"per_iteration_s":`...)
		e.float(r.PerIterationS)
	}
	if len(r.NodeTimesS) > 0 {
		e.b = append(e.b, `,"node_times_s":`...)
		e.floats(r.NodeTimesS)
	}
	if len(r.SectionTimesS) > 0 {
		e.b = append(e.b, `,"section_times_s":[`...)
		for i, s := range r.SectionTimesS {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.floats(s)
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, "}\n"...)
}

// str appends s quoted; a byte encoding/json would escape (with its
// default HTML escaping) or check as UTF-8 clears ok.
func (e *jsonAppender) str(s string) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			e.ok = false
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

func (e *jsonAppender) ints(v []int) {
	if v == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, x := range v {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = strconv.AppendInt(e.b, int64(x), 10)
	}
	e.b = append(e.b, ']')
}

func (e *jsonAppender) floats(v []float64) {
	if v == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, x := range v {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.float(x)
	}
	e.b = append(e.b, ']')
}

// float is encoding/json's float64 rule: the shortest round-trip
// digits, in exponent form below 1e-6 and from 1e21 up, with a
// two-digit negative exponent trimmed (e-07 → e-7). NaN and ±Inf,
// which encoding/json refuses, clear ok.
func (e *jsonAppender) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.ok = false
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		n := len(e.b)
		if n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}
