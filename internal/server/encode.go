package server

import (
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"laqy"
)

// The response encoder. Every laqyd response body — buffered envelopes,
// error envelopes and NDJSON frames — is appended into a pooled []byte by
// this file, with the rows taken straight from laqy.Result.Rows. Its bytes
// are the ones encoding/json writes for Envelope and StreamFrame (the
// decode contract clients use): field order, omitempty, nil-vs-empty
// slices, HTML-safe string escaping, ES6 float formatting and the trailing
// newline of json.Encoder. TestEncoderMatchesEncodingJSON and the golden
// bodies hold it there.

// maxPooledBuf bounds the buffers kept for reuse: one outsized answer must
// not pin its buffer for the life of the process.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 32<<10)
	return &b
}}

// getBuf takes an empty response buffer from the pool.
func getBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// putBuf returns a buffer to the pool once its bytes have been written.
func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		bufPool.Put(b)
	}
}

// unencodableError reports a value JSON cannot carry (NaN or ±Inf), in the
// words encoding/json uses for it.
type unencodableError struct{ v float64 }

func (e unencodableError) Error() string {
	return "unsupported value: " + strconv.FormatFloat(e.v, 'g', -1, 64)
}

// appendEnvelope appends env as one JSON line, with rows (not env.Rows, which
// only decoders fill) as its "rows". On an unencodable value it returns dst
// unchanged and the error.
//
//laqy:hot response encoder of every buffered answer
func appendEnvelope(dst []byte, env *Envelope, rows []laqy.Row) ([]byte, error) {
	e := encoder{b: append(dst, '{')}
	e.envelopeFields(env, rows)
	e.b = append(e.b, '}', '\n')
	if e.err != nil {
		return dst, e.err
	}
	return e.b, nil
}

// appendFrame appends one NDJSON frame: kind, then env's fields when env is
// not nil (header and summary frames), then row's groups and aggs, each
// omitted when empty (row frames). On an unencodable value it returns dst
// unchanged and the error.
//
//laqy:hot response encoder of every NDJSON frame
func appendFrame(dst []byte, kind string, env *Envelope, row laqy.Row) ([]byte, error) {
	e := encoder{b: append(dst, `{"kind":`...)}
	e.str(kind)
	if env != nil {
		e.b = append(e.b, ',')
		e.envelopeFields(env, nil)
	}
	if len(row.Groups) > 0 {
		e.b = append(e.b, `,"groups":`...)
		e.groups(row.Groups)
	}
	if len(row.Aggs) > 0 {
		e.b = append(e.b, `,"aggs":`...)
		e.aggs(row.Aggs)
	}
	e.b = append(e.b, '}', '\n')
	if e.err != nil {
		return dst, e.err
	}
	return e.b, nil
}

// encoder appends JSON to b, keeping the first unencodable value in err.
type encoder struct {
	b   []byte
	err error
}

// envelopeFields appends env's fields without braces, in Envelope's field
// order and under its omitempty rules.
//
//laqy:hot response encoder
func (e *encoder) envelopeFields(env *Envelope, rows []laqy.Row) {
	e.b = append(e.b, `"request_id":`...)
	e.str(env.RequestID)
	if env.Tenant != "" {
		e.b = append(e.b, `,"tenant":`...)
		e.str(env.Tenant)
	}
	if len(env.GroupColumns) > 0 {
		e.b = append(e.b, `,"group_columns":`...)
		e.strs(env.GroupColumns)
	}
	if len(env.AggColumns) > 0 {
		e.b = append(e.b, `,"agg_columns":`...)
		e.strs(env.AggColumns)
	}
	if len(rows) > 0 {
		e.b = append(e.b, `,"rows":[`...)
		for i := range rows { //laqy:allow ctxpoll leaf kernel; one answer's rows, already computed
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, `{"groups":`...)
			e.groups(rows[i].Groups)
			e.b = append(e.b, `,"aggs":`...)
			e.aggs(rows[i].Aggs)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	e.int(`,"row_count":`, int64(env.RowCount))
	if env.Mode != "" {
		e.b = append(e.b, `,"mode":`...)
		e.str(env.Mode)
	}
	if env.Approximate {
		e.b = append(e.b, `,"approximate":true`...)
	}
	if env.Stale {
		e.b = append(e.b, `,"stale":true`...)
	}
	if len(env.Degradations) > 0 {
		e.b = append(e.b, `,"degradations":`...)
		e.strs(env.Degradations)
	}
	if st := env.Stats; st != nil {
		e.int(`,"stats":{"scan_ns":`, st.ScanNS)
		e.int(`,"process_ns":`, st.ProcessNS)
		e.int(`,"merge_ns":`, st.MergeNS)
		e.int(`,"total_ns":`, st.TotalNS)
		e.int(`,"rows_scanned":`, st.RowsScanned)
		e.int(`,"rows_selected":`, st.RowsSelected)
		e.optInt(`,"segments":`, int64(st.Segments))
		e.optInt(`,"segments_built":`, int64(st.SegmentsBuilt))
		e.optInt(`,"segment_parallelism":`, int64(st.SegmentParallelism))
		e.optInt(`,"rows_dropped":`, st.RowsDropped)
		e.b = append(e.b, '}')
	}
	if env.Explain != "" {
		e.b = append(e.b, `,"explain":`...)
		e.str(env.Explain)
	}
	if er := env.Error; er != nil {
		e.b = append(e.b, `,"error":{"code":`...)
		e.str(er.Code)
		e.b = append(e.b, `,"message":`...)
		e.str(er.Message)
		e.optInt(`,"retry_after_ms":`, er.RetryAfterMS)
		e.b = append(e.b, '}')
	}
}

// int appends key and v.
func (e *encoder) int(key string, v int64) {
	e.b = append(e.b, key...)
	e.b = strconv.AppendInt(e.b, v, 10)
}

// optInt appends key and v unless v is zero (omitempty).
func (e *encoder) optInt(key string, v int64) {
	if v != 0 {
		e.int(key, v)
	}
}

// groups appends a row's group values as WireRow.Groups: strings, with
// integers in decimal.
//
//laqy:hot response encoder
func (e *encoder) groups(gs []laqy.GroupValue) {
	e.b = append(e.b, '[')
	for i := range gs { //laqy:allow ctxpoll leaf kernel; one row's groups
		if i > 0 {
			e.b = append(e.b, ',')
		}
		if gs[i].IsString {
			e.str(gs[i].Str)
			continue
		}
		e.b = append(e.b, '"')
		e.b = strconv.AppendInt(e.b, gs[i].Int, 10)
		e.b = append(e.b, '"')
	}
	e.b = append(e.b, ']')
}

// aggs appends a row's aggregates as WireRow.Aggs.
//
//laqy:hot response encoder
func (e *encoder) aggs(as []laqy.AggValue) {
	e.b = append(e.b, '[')
	for i := range as { //laqy:allow ctxpoll leaf kernel; one row's aggregates
		if i > 0 {
			e.b = append(e.b, ',')
		}
		a := &as[i]
		e.b = append(e.b, `{"value":`...)
		e.float(a.Value)
		if a.StdErr != 0 {
			e.b = append(e.b, `,"stderr":`...)
			e.float(a.StdErr)
		}
		e.optInt(`,"support":`, int64(a.Support))
		if a.Exact {
			e.b = append(e.b, `,"exact":true`...)
		}
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, ']')
}

// strs appends a string array.
func (e *encoder) strs(ss []string) {
	e.b = append(e.b, '[')
	for i, s := range ss { //laqy:allow ctxpoll leaf kernel; column names and labels
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.str(s)
	}
	e.b = append(e.b, ']')
}

// float appends f as encoding/json does (ES6 number formatting: 'e' below
// 1e-6 and from 1e21, with a one-digit negative exponent unpadded); NaN and
// ±Inf are recorded as unencodable.
//
//laqy:hot response encoder
func (e *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = unencodableError{f}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1] // e-07 → e-7
		e.b = e.b[:n-1]
	}
}

// htmlSafe marks the ASCII bytes a string carries verbatim: printable,
// and none of the quote, backslash or HTML-significant <, >, &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// str appends s as a JSON string the way encoding/json escapes it with
// HTML escaping on: short escapes for \b \f \n \r \t, \u00XX for other
// control bytes and <>&, \ufffd for each invalid UTF-8 byte, and
// U+2028/U+2029 escaped.
//
//laqy:hot response encoder
func (e *encoder) str(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); { //laqy:allow ctxpoll leaf kernel; one string
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
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
