package httpmini

import "testing"

func BenchmarkParseRequest(b *testing.B) {
	raw := []byte("POST /setpoint HTTP/1.0\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: 10\r\n\r\nvalue=23.5")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var p Parser
		p.Feed(raw)
		req, err := p.Next()
		if err != nil || req == nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRenderResponse(b *testing.B) {
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendText(buf[:0], 200, "temp=21.50 setpoint=22.00 heater=on alarm=off")
	}
}
