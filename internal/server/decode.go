package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// readBody reads r to its end into a pooled buffer and decodes it with
// decode. The decoders copy out everything they keep, so the buffer
// goes back to the pool as soon as decode returns.
func readBody[T any](r io.Reader, decode func([]byte) (T, error)) (T, error) {
	bufp := bufPool.Get().(*[]byte)
	body := bytes.NewBuffer((*bufp)[:0])
	_, err := body.ReadFrom(r)
	var req T
	if err == nil {
		req, err = decode(body.Bytes())
	}
	putBuf(bufp, body.Bytes())
	return req, err
}

// decodeQuery is the hand-rolled decoder for the POST /query body. It
// accepts exactly one JSON object whose only member is "sql" (a
// string), and is as strict as decodeInsert: unknown, duplicate and
// case-mismatched members, null, and data after the object are errors.
func decodeQuery(body []byte) (queryRequest, error) {
	d := bodyDecoder{b: body}
	var req queryRequest
	seen := false
	err := d.list('{', '}', func() error {
		key, err := d.key()
		switch {
		case err != nil:
		case key != "sql":
			err = fmt.Errorf("unknown member %q", key)
		case seen:
			err = fmt.Errorf("duplicate member %q", key)
		default:
			req.SQL, err = d.str()
		}
		seen = true
		return err
	})
	return req, d.end(err)
}

// decodeInsert is the hand-rolled decoder for the POST /insert body,
// the mirror of appendRowJSON: one pass over the bytes, integers parsed
// straight into the column slices, no reflection. It accepts exactly
// one JSON object with the members "table" (string), "create" (array of
// strings) and "columns" (object of integer arrays), each at most once
// and in any order, and nothing after it but whitespace. It is stricter
// than encoding/json was on the same struct: unknown and duplicate
// members, a column named twice, null, and members matched only
// case-insensitively are errors rather than silently dropped, merged or
// ignored. Like encoding/json it rejects numbers that are not integers
// (1.0, 1e3) or do not fit an int64.
func decodeInsert(body []byte) (insertRequest, error) {
	d := bodyDecoder{b: body}
	var req insertRequest
	seen := make(map[string]bool, 3)
	err := d.list('{', '}', func() error {
		key, err := d.key()
		switch {
		case err != nil:
		case seen[key]:
			err = fmt.Errorf("duplicate member %q", key)
		case key == "table":
			req.Table, err = d.str()
		case key == "create":
			err = d.list('[', ']', func() error {
				s, err := d.str()
				req.Create = append(req.Create, s)
				return err
			})
		case key == "columns":
			req.Columns = make(map[string][]int64)
			err = d.list('{', '}', func() error {
				col, err := d.key()
				if _, dup := req.Columns[col]; dup && err == nil {
					err = fmt.Errorf("duplicate column %q", col)
				}
				if err == nil {
					req.Columns[col], err = d.ints()
				}
				return err
			})
		default:
			err = fmt.Errorf("unknown member %q", key)
		}
		seen[key] = true
		return err
	})
	return req, d.end(err)
}

// bodyDecoder is a cursor over a request body.
type bodyDecoder struct {
	b []byte
	i int
}

var errBodyTruncated = errors.New("unexpected end of JSON input")

// end returns err, or, when the request object parsed, an error for
// anything but whitespace after it.
func (d *bodyDecoder) end(err error) error {
	if d.space(); err == nil && d.i < len(d.b) {
		return d.errorf("unexpected %q after the request object", d.b[d.i])
	}
	return err
}

func (d *bodyDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.i, fmt.Sprintf(format, args...))
}

// space skips JSON whitespace.
func (d *bodyDecoder) space() {
	for d.i < len(d.b) && (d.b[d.i] == ' ' || d.b[d.i] == '\t' || d.b[d.i] == '\n' || d.b[d.i] == '\r') {
		d.i++
	}
}

// expect skips whitespace and consumes the byte c.
func (d *bodyDecoder) expect(c byte) error {
	if d.space(); d.i >= len(d.b) {
		return errBodyTruncated
	}
	if d.b[d.i] != c {
		return d.errorf("found %q, want %q", d.b[d.i], c)
	}
	d.i++
	return nil
}

// list parses an object's or an array's brackets and commas, calling
// elem with the cursor on each member or element.
func (d *bodyDecoder) list(open, close byte, elem func() error) error {
	if err := d.expect(open); err != nil {
		return err
	}
	if d.space(); d.i < len(d.b) && d.b[d.i] == close {
		d.i++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if d.space(); d.i < len(d.b) && d.b[d.i] == close {
			d.i++
			return nil
		}
		if err := d.expect(','); err != nil {
			return err
		}
	}
}

// key parses an object member's name and colon.
func (d *bodyDecoder) key() (string, error) {
	s, err := d.str()
	if err != nil {
		return "", err
	}
	return s, d.expect(':')
}

// str parses a JSON string. Plain ASCII without escapes is copied out
// directly; anything else goes through encoding/json, so escapes,
// surrogate pairs and invalid UTF-8 come out as they always did.
func (d *bodyDecoder) str() (string, error) {
	if err := d.expect('"'); err != nil {
		return "", err
	}
	start, plain := d.i, true
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			if plain {
				return string(d.b[start : d.i-1]), nil
			}
			var s string
			if err := json.Unmarshal(d.b[start-1:d.i], &s); err != nil {
				d.i = start - 1
				return "", d.errorf("%v", err)
			}
			return s, nil
		case c == '\\':
			plain = false
			d.i++ // whatever follows is escaped, a quote included
		case c < ' ':
			return "", d.errorf("control character %q in string", c)
		case c >= 0x80:
			plain = false
		}
	}
	return "", errBodyTruncated
}

// ints parses an array of int64 literals, sizing the slice once.
func (d *bodyDecoder) ints() (vals []int64, err error) {
	err = d.list('[', ']', func() error {
		if vals == nil {
			end := max(bytes.IndexByte(d.b[d.i:], ']'), 0)
			vals = make([]int64, 0, 1+bytes.Count(d.b[d.i:d.i+end], []byte{','}))
		}
		v, err := d.int()
		vals = append(vals, v)
		return err
	})
	return vals, err
}

// int parses one JSON number that is an integer literal within int64.
func (d *bodyDecoder) int() (int64, error) {
	d.space()
	start := d.i
	neg := d.i < len(d.b) && d.b[d.i] == '-'
	if neg {
		d.i++
	}
	digits := d.i
	var mag uint64
	for ; d.i < len(d.b) && d.b[d.i]-'0' <= 9; d.i++ {
		c := uint64(d.b[d.i] - '0')
		if mag > (math.MaxUint64-c)/10 {
			break // more digits than a uint64 holds: reported below
		}
		mag = mag*10 + c
	}
	switch {
	case d.i == len(d.b):
		return 0, errBodyTruncated
	case d.i == digits:
		return 0, d.errorf("found %q, want an integer", d.b[d.i])
	case d.b[digits] == '0' && d.i-digits > 1, d.b[d.i] == '.', d.b[d.i] == 'e', d.b[d.i] == 'E':
		d.i = start
		return 0, d.errorf("number is not a JSON integer")
	case d.b[d.i]-'0' <= 9 || neg && mag > 1<<63 || !neg && mag > math.MaxInt64:
		d.i = start
		return 0, d.errorf("number overflows int64")
	}
	if neg {
		return -int64(mag), nil
	}
	return int64(mag), nil
}
