package bacnet

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
)

// The secure proxy of Fig. 1: a bump-in-the-wire in front of a legacy
// device. Frames are authenticated with HMAC-SHA256 under a shared device
// key and carry a per-client strictly increasing nonce, so spoofed frames
// fail the MAC and captured frames fail the freshness check. The legacy
// device behind the proxy is untouched, which is the point — "any approach
// to secure BAS must accommodate the long field life of control hardware".

// Proxy errors.
var (
	ErrBadMAC      = errors.New("bacnet: authentication failed")
	ErrReplay      = errors.New("bacnet: stale nonce (replay)")
	ErrShortSecure = errors.New("bacnet: short secure frame")
)

// secure frame layout: client id (4) | nonce (8) | mac (32) | pdu.
const (
	clientIDLen     = 4
	nonceLen        = 8
	macLen          = sha256.Size
	secureHeaderLen = clientIDLen + nonceLen + macLen
)

// frameMAC is one keyed HMAC-SHA256, built once per Proxy or SecureClient
// and Reset for every frame; it sums into a fixed scratch, so computing a
// MAC allocates nothing. It is not safe for concurrent use: each Proxy and
// SecureClient is driven by one goroutine at a time.
type frameMAC struct {
	h   hash.Hash
	sum [macLen]byte
}

func newFrameMAC(key []byte) *frameMAC {
	return &frameMAC{h: hmac.New(sha256.New, key)}
}

// of returns the MAC over a frame's header and PDU. The result aliases the
// scratch and is valid until the next call.
func (m *frameMAC) of(header, pdu []byte) []byte {
	m.h.Reset()
	m.h.Write(header)
	m.h.Write(pdu)
	return m.h.Sum(m.sum[:0])
}

// reserveHeader appends a secure-header placeholder to dst. The caller
// appends the PDU after it and seals the frame with sealFrame, so the PDU is
// encoded straight into the frame instead of through a scratch copy.
func reserveHeader(dst []byte) []byte {
	var hdr [secureHeaderLen]byte
	return append(dst, hdr[:]...)
}

// sealFrame fills in the security header of frame, a reserved header
// followed by the PDU: client id, nonce, and the MAC over both and the PDU.
func sealFrame(mac *frameMAC, frame []byte, clientID uint32, nonce uint64) {
	binary.BigEndian.PutUint32(frame, clientID)
	binary.BigEndian.PutUint64(frame[clientIDLen:], nonce)
	copy(frame[clientIDLen+nonceLen:secureHeaderLen], mac.of(frame[:clientIDLen+nonceLen], frame[secureHeaderLen:]))
}

// openFrame verifies and strips the security header.
func openFrame(mac *frameMAC, frame []byte) (clientID uint32, nonce uint64, pdu []byte, err error) {
	if len(frame) < secureHeaderLen {
		return 0, 0, nil, fmt.Errorf("%w: %d bytes", ErrShortSecure, len(frame))
	}
	clientID = binary.BigEndian.Uint32(frame)
	nonce = binary.BigEndian.Uint64(frame[clientIDLen:])
	gotMAC := frame[clientIDLen+nonceLen : secureHeaderLen]
	pdu = frame[secureHeaderLen:]
	if !hmac.Equal(gotMAC, mac.of(frame[:clientIDLen+nonceLen], pdu)) {
		return 0, 0, nil, ErrBadMAC
	}
	return clientID, nonce, pdu, nil
}

// ProxyState is the proxy's durable anti-replay state: the per-client nonce
// floor. A real bump-in-the-wire proxy must persist this across restarts —
// a proxy that boots with an empty table accepts any captured pre-restart
// frame again, reopening exactly the replay window it exists to close.
type ProxyState struct {
	// LastNonce is the highest nonce accepted per client id.
	LastNonce map[uint32]uint64 `json:"last_nonce"`
}

// NewProxyState returns an empty nonce-floor table.
func NewProxyState() *ProxyState {
	return &ProxyState{LastNonce: make(map[uint32]uint64)}
}

// Proxy authenticates secure frames and forwards the inner legacy PDUs to
// the wrapped server.
type Proxy struct {
	mac    *frameMAC
	server *Server
	// state holds per-client freshness floors; shared with the deployment
	// when the proxy was built with NewProxyResuming.
	state *ProxyState

	// Audit counters.
	accepted int64
	rejected int64
}

// NewProxy wraps a legacy server with the shared device key and a fresh
// (empty) anti-replay state. Use NewProxyResuming when a restarted proxy
// must honor the nonce floor of its previous incarnation.
func NewProxy(key []byte, server *Server) *Proxy {
	return NewProxyResuming(key, server, nil)
}

// NewProxyResuming wraps a legacy server, seeding the anti-replay nonce
// floor from state — the handoff a restarted proxy performs so frames
// captured before the restart stay stale after it. The proxy mutates state
// in place, so the caller's pointer always holds the current floor (ready to
// hand to the next incarnation). A nil state is equivalent to NewProxy.
func NewProxyResuming(key []byte, server *Server, state *ProxyState) *Proxy {
	if len(key) == 0 {
		panic("bacnet: proxy needs a key")
	}
	if state == nil {
		state = NewProxyState()
	}
	if state.LastNonce == nil {
		state.LastNonce = make(map[uint32]uint64)
	}
	return &Proxy{
		mac:    newFrameMAC(key),
		server: server,
		state:  state,
	}
}

// State returns the proxy's live anti-replay state. The returned pointer
// tracks every accepted frame, so persisting it at any instant (or passing
// it straight to NewProxyResuming) carries the current nonce floor over.
func (p *Proxy) State() *ProxyState { return p.state }

// Accepted reports how many frames passed authentication and freshness.
func (p *Proxy) Accepted() int64 { return p.accepted }

// Rejected reports how many frames were dropped.
func (p *Proxy) Rejected() int64 { return p.rejected }

// AppendResponse verifies one secure frame; on success it forwards the
// inner PDU to the legacy server and appends the response, sealed under the
// same client id and nonce, to dst. On failure it returns dst unchanged and
// an error, and no response leaves the proxy (fail-silent, like a firewall
// drop). dst must not overlap frame.
func (p *Proxy) AppendResponse(dst, frame []byte) ([]byte, error) {
	clientID, nonce, pdu, err := openFrame(p.mac, frame)
	if err != nil {
		p.rejected++
		return dst, err
	}
	if last, seen := p.state.LastNonce[clientID]; seen && nonce <= last {
		p.rejected++
		return dst, fmt.Errorf("%w: nonce %d <= %d", ErrReplay, nonce, last)
	}
	p.state.LastNonce[clientID] = nonce
	p.accepted++
	start := len(dst)
	dst = p.server.AppendResponse(reserveHeader(dst), pdu)
	sealFrame(p.mac, dst[start:], clientID, nonce)
	return dst, nil
}

// SecureClient produces and consumes secure frames for one client identity.
type SecureClient struct {
	mac      *frameMAC
	clientID uint32
	nonce    uint64
}

// NewSecureClient builds a client with the shared key.
func NewSecureClient(key []byte, clientID uint32) *SecureClient {
	return &SecureClient{mac: newFrameMAC(key), clientID: clientID}
}

// AppendSeal wraps a request PDU in a fresh authenticated frame, appended
// to dst.
func (c *SecureClient) AppendSeal(dst []byte, req PDU) []byte {
	c.nonce++
	start := len(dst)
	dst = req.AppendEncode(reserveHeader(dst))
	sealFrame(c.mac, dst[start:], c.clientID, c.nonce)
	return dst
}

// Open verifies a response frame and returns the inner PDU. Responses reuse
// the request nonce; the client accepts only its own current nonce, closing
// the response-replay direction too.
func (c *SecureClient) Open(frame []byte) (PDU, error) {
	clientID, nonce, pdu, err := openFrame(c.mac, frame)
	if err != nil {
		return PDU{}, err
	}
	if clientID != c.clientID || nonce != c.nonce {
		return PDU{}, fmt.Errorf("%w: response nonce %d, want %d", ErrReplay, nonce, c.nonce)
	}
	return DecodePDU(pdu)
}
