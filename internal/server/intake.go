package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"unicode/utf8"
)

// Request intake: every POST body is read whole, once, and must be exactly
// one JSON value within Config.MaxBodyBytes.  A check request's two QASM
// strings are most of its bytes, so /v1/check and /v1/jobs decode them with
// a byte-level reader (readCheckRequest) and leave only the small options
// object to encoding/json.  The reader takes one shape, the one clients
// write; on anything else it declines and the whole body goes to
// json.Unmarshal, which decodes it or words the error.  So the accepted
// language and every error text are json.Unmarshal's.

// maxPrealloc bounds what readBody allocates on the word of a declared
// Content-Length, before the bytes arrive.  A larger body's buffer grows as
// its bytes do, so a client that declares MaxBodyBytes and sends nothing
// holds this much, not the limit.
const maxPrealloc = 64 << 10

// readBody reads the whole request body under the body limit, writing the
// HTTP error response on failure: a declared Content-Length above the limit
// is refused before any byte is read, and a body that runs past it is
// refused when it does.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	limit := s.cfg.MaxBodyBytes
	if r.ContentLength > limit {
		s.failTooLarge(w)
		return nil, false
	}
	var buf bytes.Buffer
	if r.ContentLength > 0 {
		// Room for the declared bytes, up to maxPrealloc, and for the read
		// that finds the end, so a body that small is read into one
		// allocation.
		buf.Grow(int(min(r.ContentLength, maxPrealloc)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		s.failTooLarge(w)
		return nil, false
	case err != nil:
		s.fail(w, http.StatusBadRequest, CodeBadRequest, "reading the request body: "+err.Error())
		return nil, false
	}
	return buf.Bytes(), true
}

// failTooLarge answers a body past MaxBodyBytes.
func (s *Server) failTooLarge(w http.ResponseWriter) {
	s.fail(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
		fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
}

// failJSON answers a body that does not decode.
func (s *Server) failJSON(w http.ResponseWriter, err error) {
	s.fail(w, http.StatusBadRequest, CodeBadRequest, "invalid JSON: "+err.Error())
}

// decodeCheckRequest decodes a /v1/check or /v1/jobs body exactly as
// json.Unmarshal into a zero CheckRequest does (FuzzDecodeCheckRequest).
func decodeCheckRequest(body []byte) (CheckRequest, error) {
	if req, ok := readCheckRequest(body); ok {
		return req, nil
	}
	var req CheckRequest
	err := json.Unmarshal(body, &req)
	return req, err
}

// readCheckRequest decodes body when it is one JSON object whose keys are
// among "g", "gp" and "options", spelled exactly so, with string values for
// the circuits and an object for the options, followed by nothing but
// whitespace.  A repeated key acts as in json.Unmarshal: the last string
// wins, and options objects merge into one.  It reports false on any other
// body, valid or not, and then json.Unmarshal decides.
func readCheckRequest(body []byte) (req CheckRequest, ok bool) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return req, false
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		return req, skipSpace(body, i+1) == len(body)
	}
	for {
		if i == len(body) || body[i] != '"' {
			return req, false
		}
		end := bytes.IndexByte(body[i+1:], '"')
		if end < 0 {
			return req, false
		}
		key := body[i+1 : i+1+end]
		i = skipSpace(body, i+end+2)
		if i == len(body) || body[i] != ':' {
			return req, false
		}
		i = skipSpace(body, i+1)
		// A key that would need unescaping or folding to match is not one
		// of the three spellings, so it goes to json.Unmarshal.
		switch string(key) {
		case "g":
			if req.G, i, ok = readString(body, i); !ok {
				return req, false
			}
		case "gp":
			if req.Gp, i, ok = readString(body, i); !ok {
				return req, false
			}
		case "options":
			if i == len(body) || body[i] != '{' {
				return req, false
			}
			end := objectEnd(body, i)
			// A failing options value fails the body: its error text must
			// name the field as json.Unmarshal of the whole body does.
			if end < 0 || json.Unmarshal(body[i:end], &req.Options) != nil {
				return req, false
			}
			i = end
		default:
			return req, false
		}
		i = skipSpace(body, i)
		if i == len(body) {
			return req, false
		}
		switch body[i] {
		case ',':
			i = skipSpace(body, i+1)
		case '}':
			return req, skipSpace(body, i+1) == len(body)
		default:
			return req, false
		}
	}
}

// skipSpace returns the offset of the first non-whitespace byte of b at or
// after i, or len(b).
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// objectEnd returns the offset just past the bracket that closes the one
// opening at b[i], skipping brackets inside strings, or -1.  It does not
// validate: a span that is not one JSON value fails json.Unmarshal, and one
// that is ends where json.Unmarshal of the whole body would end it.
func objectEnd(b []byte, i int) int {
	depth := 0
	for ; i < len(b); i++ {
		switch b[i] {
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1
			}
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		}
	}
	return -1
}

// readString decodes the JSON string whose opening quote is b[i] and
// returns it with the offset after its closing quote.  It unescapes in one
// scan what json.Unmarshal unescapes, \uXXXX included (Go's encoder writes
// the '>' of "measure q -> c;" as \u003e).  It reports false where
// json.Unmarshal would fail or would change bytes it cannot see as escapes
// — a raw control byte, an invalid escape, invalid UTF-8 — and on a
// \uXXXX surrogate, which json.Marshal never writes, so that pairing
// surrogates is left to json.Unmarshal.
func readString(b []byte, i int) (string, int, bool) {
	if i == len(b) || b[i] != '"' {
		return "", 0, false
	}
	i++
	end := closingQuote(b, i)
	if end < 0 {
		return "", 0, false
	}
	var out strings.Builder
	out.Grow(end - i) // unescaping never lengthens
	run := i
	for {
		// A quote before end is escaped, so only a control byte, a byte of
		// a multi-byte rune or a backslash stops the scan.  In bytes,
		// c-0x20 < 0x60 is 0x20 <= c < 0x80.
		s, k := b[i:end], 0
		for k < len(s) && s[k]-0x20 < utf8.RuneSelf-0x20 && s[k] != '\\' {
			k++
		}
		if i += k; i == end {
			break
		}
		c := b[i]
		switch {
		case c < 0x20:
			return "", 0, false
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(b[i:end])
			if r == utf8.RuneError && size == 1 {
				return "", 0, false
			}
			i += size
			continue
		}
		// c is a backslash: end is preceded by an even run of them, so the
		// escaped byte lies before end.
		out.Write(b[run:i])
		n := 2 // the escape's length
		switch e := b[i+1]; e {
		case '"', '\\', '/':
			out.WriteByte(e)
		case 'b':
			out.WriteByte('\b')
		case 'f':
			out.WriteByte('\f')
		case 'n':
			out.WriteByte('\n')
		case 'r':
			out.WriteByte('\r')
		case 't':
			out.WriteByte('\t')
		case 'u':
			r := hex4(b[i+2 : end])
			if r < 0 || 0xd800 <= r && r < 0xe000 { // or a surrogate
				return "", 0, false
			}
			n = 6
			out.WriteRune(r)
		default:
			return "", 0, false
		}
		i += n
		run = i
	}
	out.Write(b[run:end])
	return out.String(), end + 1, true
}

// closingQuote returns the offset of the quote that closes a JSON string
// whose contents start at b[i] — the first one after an even run of
// backslashes — or -1.
func closingQuote(b []byte, i int) int {
	for {
		q := bytes.IndexByte(b[i:], '"')
		if q < 0 {
			return -1
		}
		q += i
		n := 0
		for q-n-1 >= i && b[q-n-1] == '\\' {
			n++
		}
		if n%2 == 0 {
			return q
		}
		i = q + 1
	}
}

// hex4 returns the value of the four hex digits that begin b, or -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
