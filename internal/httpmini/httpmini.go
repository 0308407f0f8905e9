// Package httpmini is a minimal HTTP/1.0 implementation for the scenario's
// web interface process ("a static HTTP web server ... maintains TCP socket
// on port 8080 and supports HTTP GET and HTTP POST").
//
// It speaks only the exchange that server serves: a GET or POST whose
// request line, Content-Length, Content-Type, query and form body it reads,
// answered by a text/plain response. Requests are parsed incrementally from
// a byte stream, so a simulated server can feed it whatever a non-blocking
// socket read returned and ask whether a full request has arrived yet, and
// responses are appended to a caller's buffer. Nothing on either path
// allocates once its buffers are warm. net/http is deliberately not used:
// the simulated web server must run over vnet streams inside a virtual
// kernel, not over real sockets.
package httpmini

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"unicode"
)

// Parse errors.
var (
	ErrMalformed = errors.New("httpmini: malformed request")
	ErrTooLarge  = errors.New("httpmini: request too large")
	ErrBadMethod = errors.New("httpmini: unsupported method")
)

var (
	headerTerminator = []byte("\r\n\r\n")
	crlf             = []byte("\r\n")
	httpVersion      = []byte("HTTP/1.")
)

// Limits mirror a small embedded web server.
const (
	maxHeaderBytes = 8 << 10
	maxBodyBytes   = 64 << 10
)

// Request is one parsed HTTP request. Its slices point into the parser's
// buffer and are valid until the parser's next Next or Feed.
type Request struct {
	// Method is "GET" or "POST".
	Method   string
	Path     []byte
	RawQuery []byte // the target after its first '?', still encoded
	Body     []byte
	// form reports a Content-Type naming a form-encoded body.
	form bool
}

// FormValue returns a decoded query or form value (query first, then
// x-www-form-urlencoded body), or "" when absent. Where a key repeats, its
// last value counts.
func (r *Request) FormValue(key string) string {
	v, ok := lookup(r.RawQuery, key)
	if !ok && r.form {
		v, _ = lookup(r.Body, key)
	}
	return unescape(v)
}

// Parser accumulates stream bytes and yields complete requests. It owns one
// buffer and one Request, both reused for every request it parses.
type Parser struct {
	buf []byte
	off int // buf[off:] is not yet consumed
	req Request
}

// Feed appends stream bytes to the parser. It may move the bytes a request
// returned by Next points into.
func (p *Parser) Feed(data []byte) {
	// Drop the consumed prefix once it outweighs what is left, so the copy
	// costs no more than the bytes already parsed.
	if p.off > 0 && p.off >= len(p.buf)-p.off {
		p.buf = p.buf[:copy(p.buf, p.buf[p.off:])]
		p.off = 0
	}
	p.buf = append(p.buf, data...)
}

// Reset discards every buffered byte, keeping the buffer for the next
// stream.
func (p *Parser) Reset() { p.buf, p.off = p.buf[:0], 0 }

// Buffered reports how many unconsumed bytes the parser holds.
func (p *Parser) Buffered() int { return len(p.buf) - p.off }

// Next attempts to parse one complete request from the buffered bytes.
// It returns (nil, nil) when more data is needed, and a non-nil error when
// the stream is unrecoverably malformed. The header and body limits judge
// the request, never how much of it has arrived, so the outcome does not
// depend on how the stream was chunked; while Next waits for more data the
// parser holds less than one maximal request.
func (p *Parser) Next() (*Request, error) {
	data := p.buf[p.off:]
	headerEnd := bytes.Index(data, headerTerminator)
	if headerEnd < 0 {
		// The terminator may still arrive straddling the bytes held: refuse
		// only once it could no longer start within the cap.
		if len(data)-3 > maxHeaderBytes {
			return nil, ErrTooLarge
		}
		return nil, nil
	}
	// The cap applies to complete header blocks too, not just ones still
	// waiting for their terminator — otherwise a single large read smuggles
	// an arbitrarily big block past the limit.
	if headerEnd > maxHeaderBytes {
		return nil, ErrTooLarge
	}
	line, head, more := bytes.Cut(data[:headerEnd], crlf)
	method, rest := CutField(line)
	target, rest := CutField(rest)
	proto, rest := CutField(rest)
	if extra, _ := CutField(rest); len(proto) == 0 || len(extra) > 0 {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	switch string(method) {
	case "GET":
		p.req.Method = "GET"
	case "POST":
		p.req.Method = "POST"
	default:
		return nil, fmt.Errorf("%w: %s", ErrBadMethod, method)
	}
	if !bytes.HasPrefix(proto, httpVersion) {
		return nil, fmt.Errorf("%w: protocol %q", ErrMalformed, proto)
	}

	// Only Content-Length and Content-Type are read; where one repeats,
	// its last line counts. Every line must still be a header. No rune
	// outside ASCII folds onto a letter of either name, so EqualFold reads
	// them as a lower-cased comparison would.
	var length, ctype []byte
	hasLength := false
	for more {
		line, head, more = bytes.Cut(head, crlf)
		key, val, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return nil, fmt.Errorf("%w: header %q", ErrMalformed, line)
		}
		switch key = bytes.TrimSpace(key); {
		case bytes.EqualFold(key, []byte("content-length")):
			length, hasLength = bytes.TrimSpace(val), true
		case bytes.EqualFold(key, []byte("content-type")):
			ctype = bytes.TrimSpace(val)
		}
	}

	bodyLen := 0
	if hasLength {
		n, err := strconv.Atoi(string(length))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("%w: content-length %q", ErrMalformed, length)
		}
		if n > maxBodyBytes {
			return nil, ErrTooLarge
		}
		bodyLen = n
	}
	bodyEnd := headerEnd + len(headerTerminator) + bodyLen
	if len(data) < bodyEnd {
		return nil, nil
	}
	p.req.Path, p.req.RawQuery, _ = bytes.Cut(target, []byte("?"))
	p.req.Body = data[bodyEnd-bodyLen : bodyEnd : bodyEnd]
	p.req.form = bytes.Contains(ctype, []byte("application/x-www-form-urlencoded"))
	p.off += bodyEnd
	return &p.req, nil
}

// CutField cuts the first field off s and returns it with the rest of s. A
// field is what strings.Fields yields: a maximal run of runes that are not
// unicode.IsSpace. The field is empty only when s holds no more fields.
func CutField(s []byte) (field, rest []byte) {
	s = bytes.TrimLeftFunc(s, unicode.IsSpace)
	if i := bytes.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, nil
}

// lookup returns the still-encoded value of key's last pair in the
// k=v&k2=v2 form, comparing decoded keys.
func lookup(form []byte, key string) (val []byte, ok bool) {
	var buf [64]byte
	for len(form) > 0 {
		var pair []byte
		pair, form, _ = bytes.Cut(form, []byte("&"))
		k, v, _ := bytes.Cut(pair, []byte("="))
		if len(pair) > 0 && string(appendUnescaped(buf[:0], k)) == key {
			val, ok = v, true
		}
	}
	return val, ok
}

// unescape decodes s.
func unescape(s []byte) string {
	var buf [32]byte
	return string(appendUnescaped(buf[:0], s))
}

// appendUnescaped appends s to dst with %XX sequences and '+' as space
// decoded; invalid escapes pass through literally, like a forgiving
// embedded parser.
func appendUnescaped(dst, s []byte) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '+':
			c = ' '
		case c == '%' && i+2 < len(s):
			hi, okHi := fromHex(s[i+1])
			lo, okLo := fromHex(s[i+2])
			if okHi && okLo {
				c = hi<<4 | lo
				i += 2
			}
		}
		dst = append(dst, c)
	}
	return dst
}

func fromHex(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	default:
		return 0, false
	}
}

// statusText names the codes the web interface answers with.
var statusText = map[int]string{200: "OK", 400: "Bad Request", 404: "Not Found",
	405: "Method Not Allowed", 500: "Internal Server Error"}

// AppendText appends a text/plain HTTP/1.0 response carrying body to dst.
func AppendText(dst []byte, status int, body string) []byte {
	dst = append(dst, "HTTP/1.0 "...)
	dst = strconv.AppendInt(dst, int64(status), 10)
	text, ok := statusText[status]
	if !ok {
		text = "Status"
	}
	dst = append(append(dst, ' '), text...)
	dst = append(dst, "\r\nContent-Type: text/plain\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, headerTerminator...)
	return append(dst, body...)
}

// ParseResponse parses a response (for the harness/client side). The body
// is everything after the header block, a subslice of data.
func ParseResponse(data []byte) (status int, body []byte, err error) {
	headerEnd := bytes.Index(data, headerTerminator)
	if headerEnd < 0 {
		return 0, nil, ErrMalformed
	}
	line, _, _ := bytes.Cut(data[:headerEnd], crlf)
	proto, rest := CutField(line)
	code, _ := CutField(rest)
	if len(code) == 0 || !bytes.HasPrefix(proto, httpVersion) {
		return 0, nil, fmt.Errorf("%w: status line %q", ErrMalformed, line)
	}
	status, err = strconv.Atoi(string(code))
	if err != nil {
		return 0, nil, fmt.Errorf("%w: status %q", ErrMalformed, code)
	}
	return status, data[headerEnd+len(headerTerminator):], nil
}
