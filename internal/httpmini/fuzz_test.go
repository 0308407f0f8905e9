package httpmini

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// parsed is what a parser made of a whole stream: copies of the requests
// it yielded (each lives only until the parser's next call), the error
// that stopped it (if any) and, when none did, the bytes it still held. After an error the feeder stops, so what is left depends on where
// the last chunk ended and is not compared.
type parsed struct {
	reqs     []*Request
	err      string
	buffered int
}

// drain pulls requests until the parser needs more bytes or fails. It
// checks the buffering bound on the way: a parser waiting for more bytes
// holds at most one incomplete request, which the header and body limits
// cap.
func drain(t *testing.T, p *Parser, out *parsed) bool {
	t.Helper()
	for {
		req, err := p.Next()
		if err != nil {
			out.err = err.Error()
			return false
		}
		if req == nil {
			if n := p.Buffered(); n >= maxHeaderBytes+4+maxBodyBytes {
				t.Fatalf("parser waits for more with %d bytes buffered", n)
			}
			return true
		}
		out.reqs = append(out.reqs, &Request{Method: req.Method, Path: bytes.Clone(req.Path),
			RawQuery: bytes.Clone(req.RawQuery), Body: bytes.Clone(req.Body), form: req.form})
	}
}

// parseChunked feeds stream to a fresh parser in chunks whose lengths come
// from seed (0 means all at once), draining after each one.
func parseChunked(t *testing.T, stream []byte, seed uint64) parsed {
	t.Helper()
	var p Parser
	var out parsed
	for len(stream) > 0 {
		n := len(stream)
		if seed != 0 {
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			n = min(n, 1+int(seed%97))
		}
		p.Feed(stream[:n])
		stream = stream[n:]
		if !drain(t, &p, &out) {
			return out
		}
	}
	out.buffered = p.Buffered()
	return out
}

// FuzzParser drives the web UI's request parser, which every board exposes
// to the network. Whatever the bytes, it must not panic; it must yield the
// same requests, the same error and the same leftover bytes however the
// stream is chunked; a parser waiting for more bytes must hold no more
// than one request's worth; and any response rendered from a parsed
// request must parse back to its status and body.
//
// The small seeds live in testdata/fuzz/FuzzParser; the two below sit
// exactly on the header and body limits.
func FuzzParser(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.0\r\nX-Pad: "+strings.Repeat("b", maxHeaderBytes-23)+"\r\n\r\n"), uint64(5), 431)
	f.Add([]byte("POST / HTTP/1.0\r\nContent-Length: 65536\r\nX-Pad: "+strings.Repeat("p", maxHeaderBytes-47)+"\r\n\r\n"+strings.Repeat("x", maxBodyBytes)), uint64(9), 200)
	f.Fuzz(func(t *testing.T, stream []byte, seed uint64, status int) {
		whole := parseChunked(t, stream, 0)
		chunked := parseChunked(t, stream, seed|1)
		if !reflect.DeepEqual(whole, chunked) {
			t.Fatalf("chunking changed the parse:\nwhole   %+v\nchunked %+v", whole, chunked)
		}
		for _, req := range whole.reqs {
			gotStatus, gotBody, err := ParseResponse(AppendText(nil, status, string(req.Body)))
			if err != nil || gotStatus != status || !bytes.Equal(gotBody, req.Body) {
				t.Fatalf("round trip of %d %q: %d %q %v", status, req.Body, gotStatus, gotBody, err)
			}
		}
	})
}

// parseSplit feeds stream to a fresh parser in two pieces cut at at,
// draining after each.
func parseSplit(t *testing.T, stream []byte, at int) parsed {
	t.Helper()
	var p Parser
	var out parsed
	p.Feed(stream[:at])
	if !drain(t, &p, &out) {
		return out
	}
	p.Feed(stream[at:])
	if drain(t, &p, &out) {
		out.buffered = p.Buffered()
	}
	return out
}

func TestParserLimitsIgnoreChunking(t *testing.T) {
	// A request whose header block ends exactly at the header cap, and one
	// that also carries the largest body, parse whole. Cut anywhere near
	// either limit, they must parse the same: a limit judges the request,
	// not how much of it has arrived.
	atHeaderCap := "GET / HTTP/1.0\r\nX-Pad: " + strings.Repeat("b", maxHeaderBytes-23) + "\r\n\r\n"
	atBothCaps := "POST / HTTP/1.0\r\nContent-Length: 65536\r\nX-Pad: " + strings.Repeat("p", maxHeaderBytes-47) +
		"\r\n\r\n" + strings.Repeat("x", maxBodyBytes)
	for _, stream := range []string{atHeaderCap, atBothCaps} {
		whole := parseChunked(t, []byte(stream), 0)
		if whole.err != "" || len(whole.reqs) != 1 {
			t.Fatalf("request at the limits refused: %s", whole.err)
		}
		for _, edge := range []int{maxHeaderBytes, len(stream)} {
			for at := edge - 8; at <= min(edge+8, len(stream)); at++ {
				if got := parseSplit(t, []byte(stream), at); !reflect.DeepEqual(got, whole) {
					t.Fatalf("%d-byte stream cut at %d: err %q, %d requests", len(stream), at, got.err, len(got.reqs))
				}
			}
		}
	}
}

func TestPipelinedStreamAllocatesPerRequest(t *testing.T) {
	// A burst of pipelined requests in one read must cost allocation per
	// request, not per request per byte still buffered: the parser once
	// copied the whole remainder after every request, so 4,000 requests
	// in one feed allocated hundreds of megabytes.
	const n = 4000
	stream := []byte(strings.Repeat("GET /status HTTP/1.0\r\n\r\n", n))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var p Parser
	p.Feed(stream)
	var out parsed
	drain(t, &p, &out)
	runtime.ReadMemStats(&after)
	if len(out.reqs) != n || out.err != "" {
		t.Fatalf("parsed %d of %d requests, err %q", len(out.reqs), n, out.err)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 1<<10 {
		t.Fatalf("parsing allocated %d bytes a request, want at most 1 KiB", per)
	}
}
