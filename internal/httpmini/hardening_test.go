package httpmini

import (
	"errors"
	"strings"
	"testing"
)

// Satellite coverage for the parser's hardening edges: the 515 LoC that
// front every byte an attacker controls previously had no tests for the
// refusal paths.

func feedOne(t *testing.T, raw string) (*Request, error) {
	t.Helper()
	var p Parser
	p.Feed([]byte(raw))
	return p.Next()
}

func TestMalformedRequestLines(t *testing.T) {
	cases := []struct {
		name string
		raw  string
		want error
	}{
		{"empty request line", "\r\n\r\n", ErrMalformed},
		{"two fields", "GET /\r\n\r\n", ErrMalformed},
		{"four fields", "GET / HTTP/1.0 junk\r\n\r\n", ErrMalformed},
		{"bad protocol", "GET / SPDY/9\r\n\r\n", ErrMalformed},
		{"unsupported method", "DELETE / HTTP/1.0\r\n\r\n", ErrBadMethod},
		{"lowercase method", "get / HTTP/1.0\r\n\r\n", ErrBadMethod},
		{"header without colon", "GET / HTTP/1.0\r\nno-colon-here\r\n\r\n", ErrMalformed},
		{"negative content length", "POST / HTTP/1.0\r\nContent-Length: -5\r\n\r\n", ErrMalformed},
		{"junk content length", "POST / HTTP/1.0\r\nContent-Length: ten\r\n\r\n", ErrMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := feedOne(t, tc.raw)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got (%v, %v), want error %v", req, err, tc.want)
			}
		})
	}
}

func TestOversizedHeaders(t *testing.T) {
	// A request line that never terminates must die at the header cap, not
	// accumulate forever (slowloris drip of header bytes).
	var p Parser
	p.Feed([]byte("GET /" + strings.Repeat("a", maxHeaderBytes) + " HTTP/1.0\r\n"))
	if _, err := p.Next(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized request line: %v, want ErrTooLarge", err)
	}
	// A single oversized header value trips the same cap.
	p = Parser{}
	p.Feed([]byte("GET / HTTP/1.0\r\nX-Pad: " + strings.Repeat("b", maxHeaderBytes+1) + "\r\n\r\n"))
	if _, err := p.Next(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized header block: %v, want ErrTooLarge", err)
	}
	// A declared body over the cap is refused before the bytes arrive.
	if _, err := feedOne(t, "POST / HTTP/1.0\r\nContent-Length: 100000\r\n\r\n"); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized declared body: %v, want ErrTooLarge", err)
	}
	// At the boundary the parser still works.
	body := strings.Repeat("x", maxBodyBytes)
	var pb Parser
	pb.Feed([]byte("POST / HTTP/1.0\r\nContent-Length: 65536\r\n\r\n" + body))
	req, err := pb.Next()
	if err != nil || req == nil || len(req.Body) != maxBodyBytes {
		t.Fatalf("body at cap: req=%v err=%v", req, err)
	}
}

func TestIncrementalFeedAndPipelining(t *testing.T) {
	var p Parser
	raw := "GET /a HTTP/1.0\r\n\r\nGET /b HTTP/1.0\r\n\r\n"
	// Drip one byte at a time: Next must keep answering "not yet" without
	// error until a full request lands.
	var got []string
	for i := 0; i < len(raw); i++ {
		p.Feed([]byte{raw[i]})
		req, err := p.Next()
		if err != nil {
			t.Fatalf("byte %d: %v", i, err)
		}
		if req != nil {
			got = append(got, string(req.Path))
		}
	}
	// The second pipelined request is still buffered.
	if req, err := p.Next(); err == nil && req != nil {
		got = append(got, string(req.Path))
	}
	if strings.Join(got, ",") != "/a,/b" {
		t.Fatalf("pipelined paths = %v", got)
	}
	if p.Buffered() != 0 {
		t.Fatalf("%d bytes left buffered", p.Buffered())
	}
}
