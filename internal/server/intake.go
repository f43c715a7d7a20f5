package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"unicode/utf8"

	"qcec/internal/qasm"
)

// Request intake: every POST body is read whole, once, and must be exactly
// one JSON value within Config.MaxBodyBytes.  A check request's two QASM
// strings are most of its bytes, so /v1/check and /v1/jobs decode them with
// a byte-level reader (readCheckRequest) and leave only the small options
// object to encoding/json.  The reader takes one shape, the one clients
// write; on anything else it declines and the whole body goes to
// json.Unmarshal, which decodes it or words the error.  So the accepted
// language and every error text are json.Unmarshal's.

// Intake memory is reused across requests, so a cache hit allocates
// nothing per gate and nothing per body byte past maxPrealloc: a body
// larger than that continues in a reused buffer, given back once the body
// is decoded (the decoded strings are copies), and each circuit is parsed
// into a reused qasm.Storage, given back by finish.  Each free list keeps
// a few idle values, enough for the requests a handful of clients have in
// flight at once, and drops a value grown past its cap, so the memory
// kept idle is bounded: idleBodies·maxIdleBody for bodies, and for parses
// idleParses storages of at most maxIdleGates gates (80 bytes each, plus
// at most 56 bytes of Controls and Params chunks).
const (
	idleBodies  = 4
	maxIdleBody = 1 << 20
	idleParses  = 8 // two per request
	// maxIdleGates is three times a side of a routed 5-bit compiler pair.
	maxIdleGates = 1 << 14
)

// freeList keeps up to cap idle values for reuse.  get returns one, or the
// zero value when none is idle; put keeps v unless the list is full.
type freeList[T any] chan T

func (f freeList[T]) get() (v T) {
	select {
	case v = <-f:
	default:
	}
	return v
}

func (f freeList[T]) put(v T) {
	select {
	case f <- v:
	default:
	}
}

// parseStorage returns an idle parse storage, or a new one.
func (s *Server) parseStorage() *qasm.Storage {
	if st := s.parses.get(); st != nil {
		return st
	}
	return new(qasm.Storage)
}

// releaseParse gives st back for reuse.  Its caller has made sure nothing
// reads the circuit parsed into it any more (see finish).
func (s *Server) releaseParse(st *qasm.Storage) {
	if st == nil || st.Cap() > maxIdleGates {
		return
	}
	if s.cfg.testReleaseParse != nil {
		s.cfg.testReleaseParse(st)
	}
	s.parses.put(st)
}

// maxPrealloc bounds what readBody allocates on the word of a declared
// Content-Length, before the bytes arrive.  A larger body continues in a
// reused buffer only once this much of it has arrived, so a client that
// declares MaxBodyBytes and sends nothing holds this much, not the limit,
// and no reused buffer.
const maxPrealloc = 64 << 10

// readBody reads the whole request body under the body limit, writing the
// HTTP error response on failure: a declared Content-Length above the limit
// is refused before any byte is read, and a body that runs past it is
// refused when it does.  Give the body to releaseBody once it is decoded.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	limit := s.cfg.MaxBodyBytes
	if r.ContentLength > limit {
		s.failTooLarge(w)
		return nil, false
	}
	rd := http.MaxBytesReader(w, r.Body, limit)
	// Room for the declared bytes, up to maxPrealloc, and for the read that
	// finds the end, so a body that small is read into one allocation.
	buf, err := fill(rd, make([]byte, 0, min(max(r.ContentLength, 0), maxPrealloc)+bytes.MinRead))
	if err == nil {
		// The body outgrew its first buffer: continue it in a reused one,
		// doubling that whenever it fills.
		buf = append(s.bodies.get()[:0], buf...)
		for err == nil {
			if len(buf) == cap(buf) {
				buf = slices.Grow(buf, len(buf))
			}
			buf, err = fill(rd, buf)
		}
	}
	var tooBig *http.MaxBytesError
	switch {
	case err == io.EOF:
		return buf, true
	case errors.As(err, &tooBig):
		s.failTooLarge(w)
	default:
		s.fail(w, http.StatusBadRequest, CodeBadRequest, "reading the request body: "+err.Error())
	}
	s.releaseBody(buf)
	return nil, false
}

// fill reads from rd into buf's spare capacity until it is full, returning
// a nil error then, or until rd fails (io.EOF at the end of the body).
func fill(rd io.Reader, buf []byte) ([]byte, error) {
	for len(buf) < cap(buf) {
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// releaseBody gives a body's buffer back for reuse once nothing reads it,
// if readBody took it from the free list (or grew it there) and it is
// within maxIdleBody.
func (s *Server) releaseBody(body []byte) {
	if c := cap(body); c > maxPrealloc+bytes.MinRead && c <= maxIdleBody {
		s.bodies.put(body)
	}
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
