package httpmini

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimpleGet(t *testing.T) {
	var p Parser
	p.Feed([]byte("GET /status HTTP/1.0\r\nHost: controller\r\n\r\n"))
	req, err := p.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if req == nil {
		t.Fatal("request incomplete")
	}
	if req.Method != "GET" || string(req.Path) != "/status" || req.RawQuery != nil || len(req.Body) != 0 {
		t.Fatalf("parsed %+v", req)
	}
}

func TestParseIncremental(t *testing.T) {
	var p Parser
	raw := "POST /setpoint HTTP/1.0\r\nContent-Length: 7\r\nContent-Type: application/x-www-form-urlencoded\r\n\r\nvalue=9"
	for i := 0; i < len(raw); i++ {
		p.Feed([]byte{raw[i]})
		req, err := p.Next()
		if err != nil {
			t.Fatalf("byte %d: %v", i, err)
		}
		if req != nil {
			if i != len(raw)-1 {
				t.Fatalf("request completed early at byte %d", i)
			}
			if got := req.FormValue("value"); got != "9" {
				t.Fatalf("form value = %q", got)
			}
			return
		}
	}
	t.Fatal("request never completed")
}

func TestParsePipelined(t *testing.T) {
	var p Parser
	p.Feed([]byte("GET /a HTTP/1.0\r\n\r\nGET /b HTTP/1.0\r\n\r\n"))
	r1, err := p.Next()
	if err != nil || r1 == nil || string(r1.Path) != "/a" {
		t.Fatalf("first = %+v, %v", r1, err)
	}
	r2, err := p.Next()
	if err != nil || r2 == nil || string(r2.Path) != "/b" {
		t.Fatalf("second = %+v, %v", r2, err)
	}
	r3, err := p.Next()
	if err != nil || r3 != nil {
		t.Fatalf("third = %+v, %v (want pending)", r3, err)
	}
}

func TestQueryDecoding(t *testing.T) {
	var p Parser
	p.Feed([]byte("GET /set?temp=21.5&note=hi+there%21 HTTP/1.0\r\n\r\n"))
	req, err := p.Next()
	if err != nil || req == nil {
		t.Fatalf("Next: %v", err)
	}
	if got := req.FormValue("temp"); got != "21.5" {
		t.Fatalf("temp = %q", got)
	}
	if got := req.FormValue("note"); got != "hi there!" {
		t.Fatalf("note = %q", got)
	}
}

func TestRejectBadMethod(t *testing.T) {
	var p Parser
	p.Feed([]byte("DELETE /x HTTP/1.0\r\n\r\n"))
	if _, err := p.Next(); !errors.Is(err, ErrBadMethod) {
		t.Fatalf("err = %v, want ErrBadMethod", err)
	}
}

func TestRejectMalformed(t *testing.T) {
	for _, raw := range []string{
		"GARBAGE\r\n\r\n",
		"GET /x HTTP/1.0\r\nBadHeaderNoColon\r\n\r\n",
		"GET /x FTP/1.0\r\n\r\n",
		"POST /x HTTP/1.0\r\nContent-Length: -5\r\n\r\n",
		"POST /x HTTP/1.0\r\nContent-Length: abc\r\n\r\n",
	} {
		var p Parser
		p.Feed([]byte(raw))
		if _, err := p.Next(); err == nil {
			t.Errorf("accepted malformed request %q", raw)
		}
	}
}

func TestOversizeBodyRejected(t *testing.T) {
	var p Parser
	p.Feed([]byte(fmt.Sprintf("POST /x HTTP/1.0\r\nContent-Length: %d\r\n\r\n", maxBodyBytes+1)))
	if _, err := p.Next(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestOversizeHeaderRejected(t *testing.T) {
	var p Parser
	p.Feed([]byte("GET /" + strings.Repeat("a", maxHeaderBytes+10) + " HTTP/1.0\r\n"))
	if _, err := p.Next(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestResponseRenderAndParse(t *testing.T) {
	raw := AppendText(nil, 200, "temp=21.0 setpoint=21.0 heater=on alarm=off")
	if !bytes.HasPrefix(raw, []byte("HTTP/1.0 200 OK\r\n")) {
		t.Fatalf("render = %q", raw)
	}
	status, body, err := ParseResponse(raw)
	if err != nil {
		t.Fatalf("ParseResponse: %v", err)
	}
	if status != 200 || !bytes.Contains(body, []byte("heater=on")) {
		t.Fatalf("status=%d body=%q", status, body)
	}
}

func TestUnescapeProperty(t *testing.T) {
	// Escaping then unescaping simple ASCII strings is the identity.
	f := func(s string) bool {
		var esc strings.Builder
		for i := 0; i < len(s); i++ {
			fmt.Fprintf(&esc, "%%%02X", s[i])
		}
		return unescape([]byte(esc.String())) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnescapeInvalidPassthrough(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"%", "%"},
		{"%Z", "%Z"},
		{"%zz", "%zz"},
		{"a%2", "a%2"},
		{"100%", "100%"},
	} {
		if got := unescape([]byte(tc.in)); got != tc.want {
			t.Errorf("unescape(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestParseResponseErrors(t *testing.T) {
	if _, _, err := ParseResponse([]byte("junk")); err == nil {
		t.Fatal("accepted junk response")
	}
	if _, _, err := ParseResponse([]byte("HTTP/1.0 abc X\r\n\r\n")); err == nil {
		t.Fatal("accepted non-numeric status")
	}
}

func TestFormValueFromBody(t *testing.T) {
	var p Parser
	p.Feed([]byte("POST /setpoint HTTP/1.0\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: 10\r\n\r\nvalue=23.5"))
	req, err := p.Next()
	if err != nil || req == nil {
		t.Fatalf("Next: %v", err)
	}
	if got := req.FormValue("value"); got != "23.5" {
		t.Fatalf("FormValue = %q", got)
	}
	if got := req.FormValue("missing"); got != "" {
		t.Fatalf("missing FormValue = %q", got)
	}
}
