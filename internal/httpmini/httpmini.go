// Package httpmini is a minimal HTTP/1.0 implementation for the scenario's
// web interface process ("a static HTTP web server ... maintains TCP socket
// on port 8080 and supports HTTP GET and HTTP POST").
//
// It parses requests incrementally from a byte stream, so a simulated server
// can feed it whatever a non-blocking socket read returned and ask whether a
// full request has arrived yet. Responses are rendered to bytes for the
// symmetric path. net/http is deliberately not used: the simulated web server
// must run over vnet streams inside a virtual kernel, not over real sockets.
package httpmini

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Parse errors.
var (
	ErrMalformed    = errors.New("httpmini: malformed request")
	ErrTooLarge     = errors.New("httpmini: request too large")
	ErrBadMethod    = errors.New("httpmini: unsupported method")
	errNeedMoreData = errors.New("httpmini: incomplete")
)

// Limits mirror a small embedded web server.
const (
	maxHeaderBytes = 8 << 10
	maxBodyBytes   = 64 << 10
)

// Request is one parsed HTTP request.
type Request struct {
	Method  string
	Path    string
	Query   map[string]string
	Proto   string
	Headers map[string]string // keys lower-cased
	Body    []byte
}

// FormValue returns a decoded query or form value (query first, then
// x-www-form-urlencoded body), or "" when absent.
func (r *Request) FormValue(key string) string {
	if v, ok := r.Query[key]; ok {
		return v
	}
	if strings.Contains(r.Headers["content-type"], "application/x-www-form-urlencoded") {
		form := parseURLEncoded(string(r.Body))
		return form[key]
	}
	return ""
}

// Parser accumulates stream bytes and yields complete requests.
type Parser struct {
	buf []byte
}

// Feed appends stream bytes to the parser.
func (p *Parser) Feed(data []byte) {
	p.buf = append(p.buf, data...)
}

// Buffered reports how many unconsumed bytes the parser holds.
func (p *Parser) Buffered() int { return len(p.buf) }

// Next attempts to parse one complete request from the buffered bytes.
// It returns (nil, nil) when more data is needed, and a non-nil error when
// the stream is unrecoverably malformed. The header and body limits judge
// the request, never how much of it has arrived, so the outcome does not
// depend on how the stream was chunked; while Next waits for more data the
// parser holds less than one maximal request.
func (p *Parser) Next() (*Request, error) {
	req, rest, err := parseOne(p.buf)
	switch {
	case errors.Is(err, errNeedMoreData):
		return nil, nil
	case err != nil:
		return nil, err
	default:
		p.buf = rest
		return req, nil
	}
}

// parseOne parses a single request from data, returning the unconsumed
// bytes as a subslice of data. It copies out only what the request keeps,
// so a long pipelined stream costs linear time however it is fed.
func parseOne(data []byte) (*Request, []byte, error) {
	headerEnd := bytes.Index(data, headerTerminator)
	if headerEnd < 0 {
		// The terminator may still arrive straddling the bytes held: refuse
		// only once it could no longer start within the cap.
		if len(data)-3 > maxHeaderBytes {
			return nil, nil, ErrTooLarge
		}
		return nil, nil, errNeedMoreData
	}
	// The cap applies to complete header blocks too, not just ones still
	// waiting for their terminator — otherwise a single large read smuggles
	// an arbitrarily big block past the limit.
	if headerEnd > maxHeaderBytes {
		return nil, nil, ErrTooLarge
	}
	head := string(data[:headerEnd])
	lines := strings.Split(head, "\r\n")
	if len(lines) == 0 {
		return nil, nil, ErrMalformed
	}
	reqLine := strings.Fields(lines[0])
	if len(reqLine) != 3 {
		return nil, nil, fmt.Errorf("%w: request line %q", ErrMalformed, lines[0])
	}
	method, target, proto := reqLine[0], reqLine[1], reqLine[2]
	if method != "GET" && method != "POST" {
		return nil, nil, fmt.Errorf("%w: %s", ErrBadMethod, method)
	}
	if !strings.HasPrefix(proto, "HTTP/1.") {
		return nil, nil, fmt.Errorf("%w: protocol %q", ErrMalformed, proto)
	}

	headers := make(map[string]string, len(lines)-1)
	for _, line := range lines[1:] {
		colon := strings.IndexByte(line, ':')
		if colon < 0 {
			return nil, nil, fmt.Errorf("%w: header %q", ErrMalformed, line)
		}
		key := strings.ToLower(strings.TrimSpace(line[:colon]))
		headers[key] = strings.TrimSpace(line[colon+1:])
	}

	bodyLen := 0
	if cl, ok := headers["content-length"]; ok {
		n, err := strconv.Atoi(cl)
		if err != nil || n < 0 {
			return nil, nil, fmt.Errorf("%w: content-length %q", ErrMalformed, cl)
		}
		if n > maxBodyBytes {
			return nil, nil, ErrTooLarge
		}
		bodyLen = n
	}
	bodyStart := headerEnd + 4
	if len(data) < bodyStart+bodyLen {
		return nil, nil, errNeedMoreData
	}
	body := make([]byte, bodyLen)
	copy(body, data[bodyStart:bodyStart+bodyLen])

	path, query := target, ""
	if q := strings.IndexByte(target, '?'); q >= 0 {
		path, query = target[:q], target[q+1:]
	}

	req := &Request{
		Method:  method,
		Path:    path,
		Query:   parseURLEncoded(query),
		Proto:   proto,
		Headers: headers,
		Body:    body,
	}
	return req, data[bodyStart+bodyLen:], nil
}

// headerTerminator ends a request's header block.
var headerTerminator = []byte("\r\n\r\n")

// parseURLEncoded decodes k=v&k2=v2 pairs with %XX and '+' decoding.
func parseURLEncoded(s string) map[string]string {
	out := make(map[string]string)
	if s == "" {
		return out
	}
	for _, pair := range strings.Split(s, "&") {
		if pair == "" {
			continue
		}
		key, val := pair, ""
		if eq := strings.IndexByte(pair, '='); eq >= 0 {
			key, val = pair[:eq], pair[eq+1:]
		}
		out[unescape(key)] = unescape(val)
	}
	return out
}

// unescape decodes %XX sequences and '+' as space; invalid escapes pass
// through literally, like a forgiving embedded parser.
func unescape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '+':
			b.WriteByte(' ')
		case s[i] == '%' && i+2 < len(s):
			hi, okHi := fromHex(s[i+1])
			lo, okLo := fromHex(s[i+2])
			if okHi && okLo {
				b.WriteByte(hi<<4 | lo)
				i += 2
			} else {
				b.WriteByte(s[i])
			}
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
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

// Response is one HTTP response to render.
type Response struct {
	Status  int
	Headers map[string]string
	Body    []byte
}

// statusText covers the codes the scenario server emits.
func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 401:
		return "Unauthorized"
	case 403:
		return "Forbidden"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 429:
		return "Too Many Requests"
	case 500:
		return "Internal Server Error"
	case 503:
		return "Service Unavailable"
	default:
		return "Status"
	}
}

// Render serialises the response as HTTP/1.0 bytes. Content-Length is always
// emitted; header order is deterministic.
func (r *Response) Render() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "HTTP/1.0 %d %s\r\n", r.Status, statusText(r.Status))
	keys := make([]string, 0, len(r.Headers))
	for k := range r.Headers {
		if strings.EqualFold(k, "content-length") {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s: %s\r\n", k, r.Headers[k])
	}
	fmt.Fprintf(&b, "Content-Length: %d\r\n\r\n", len(r.Body))
	out := append([]byte(b.String()), r.Body...)
	return out
}

// Text builds a text/plain response.
func Text(status int, body string) *Response {
	return &Response{
		Status:  status,
		Headers: map[string]string{"Content-Type": "text/plain"},
		Body:    []byte(body),
	}
}

// ParseResponse parses a rendered response (for the harness/client side).
func ParseResponse(data []byte) (status int, body []byte, err error) {
	s := string(data)
	headerEnd := strings.Index(s, "\r\n\r\n")
	if headerEnd < 0 {
		return 0, nil, ErrMalformed
	}
	lines := strings.Split(s[:headerEnd], "\r\n")
	fields := strings.Fields(lines[0])
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "HTTP/1.") {
		return 0, nil, fmt.Errorf("%w: status line %q", ErrMalformed, lines[0])
	}
	status, err = strconv.Atoi(fields[1])
	if err != nil {
		return 0, nil, fmt.Errorf("%w: status %q", ErrMalformed, fields[1])
	}
	return status, data[headerEnd+4:], nil
}
