package bacnet

import (
	"bytes"
	"testing"
)

// Every codec step of a poll has only an append or reuse form: encode,
// frame, seal, the proxy's and the server's responses, deframing and
// opening. The head-end poller and the gateway reply loop run them on
// reused buffers, so one whole secure exchange and one whole legacy
// exchange must allocate nothing once the buffers have grown.
func TestAppendEncodeFrameZeroAllocOnReusedBuffer(t *testing.T) {
	p := PDU{Type: ReadProperty, InvokeID: 7, Device: 3, Object: ObjTemperature, Value: 21.5}
	key := []byte("device-key")
	store := &memStore{temp: 21.5, setpoint: 22}
	server := NewServer(3, store)
	proxy := NewProxy(key, server)
	client := NewSecureClient(key, 9)

	var req, reqFrame, resp, respFrame []byte
	var gw, head Deframer
	var got PDU
	exchange := func(secure bool) {
		if secure {
			req = client.AppendSeal(req[:0], p)
		} else {
			req = p.AppendEncode(req[:0])
		}
		reqFrame = AppendFrame(reqFrame[:0], req)
		gw.Reset()
		gw.Feed(reqFrame)
		in := gw.Next()
		var err error
		if secure {
			if resp, err = proxy.AppendResponse(resp[:0], in); err != nil {
				t.Fatal(err)
			}
		} else {
			resp = server.AppendResponse(resp[:0], in)
		}
		respFrame = AppendFrame(respFrame[:0], resp)
		head.Reset()
		head.Feed(respFrame)
		out := head.Next()
		if secure {
			got, err = client.Open(out)
		} else {
			got, err = DecodePDU(out)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, secure := range []bool{false, true} {
		exchange(secure)
		if allocs := testing.AllocsPerRun(100, func() { exchange(secure) }); allocs != 0 {
			t.Errorf("secure=%v exchange on reused buffers allocated %.1f per run, want 0", secure, allocs)
		}
		if want := (PDU{Type: Ack, InvokeID: 7, Device: 3, Object: ObjTemperature, Value: 21.5}); got != want {
			t.Fatalf("secure=%v exchange answered %+v, want %+v", secure, got, want)
		}
	}

	// Appending after existing bytes leaves them alone and yields the same
	// frame a fresh buffer does.
	prefix := []byte("keep")
	if out := AppendFrame(append([]byte(nil), prefix...), p.AppendEncode(nil)); !bytes.Equal(out[:4], prefix) ||
		!bytes.Equal(out[4:], AppendFrame(nil, p.AppendEncode(nil))) {
		t.Fatalf("AppendFrame after a prefix = %x", out)
	}
}

// A Deframer owns its bytes: the caller may overwrite what it fed at once,
// and a frame from Next stays intact until the next Feed.
func TestDeframerCopiesAndCompacts(t *testing.T) {
	var d Deframer
	in := AppendFrame(AppendFrame(nil, []byte("first")), []byte("sec"))
	in = append(in, 0) // half of the next length prefix
	d.Feed(in)
	for i := range in {
		in[i] = 0xEE
	}
	if f := d.Next(); string(f) != "first" {
		t.Fatalf("first frame = %q", f)
	}
	f := d.Next()
	if string(f) != "sec" {
		t.Fatalf("second frame = %q", f)
	}
	if d.Next() != nil {
		t.Fatal("frame from half a length prefix")
	}
	// The rest of the third frame completes the prefix; consumed bytes are
	// compacted away, so the buffer does not grow with the stream.
	d.Feed([]byte{3, 'e', 'n', 'd'})
	if f := d.Next(); string(f) != "end" {
		t.Fatalf("third frame = %q", f)
	}
	if len(d.buf) != 5 {
		t.Fatalf("deframer holds %d bytes after compaction, want 5 (one frame)", len(d.buf))
	}
	d.Reset()
	if d.Next() != nil || len(d.buf) != 0 {
		t.Fatal("Reset left bytes behind")
	}
}
