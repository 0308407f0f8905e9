package bacnet

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"math/rand"
	"testing"
)

// sealed returns a fresh secure frame around pdu.
func sealed(mac *frameMAC, clientID uint32, nonce uint64, pdu []byte) []byte {
	frame := append(reserveHeader(nil), pdu...)
	sealFrame(mac, frame, clientID, nonce)
	return frame
}

// referenceMAC is the MAC of a secure frame computed the straightforward
// way, with a fresh keyed HMAC per frame.
func referenceMAC(key []byte, frame []byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write(frame[:clientIDLen+nonceLen])
	mac.Write(frame[secureHeaderLen:])
	return mac.Sum(nil)
}

func TestFrameMACMatchesFreshHMAC(t *testing.T) {
	// One frameMAC is reused across many frames, and seals and opens
	// interleave on it; every MAC must still equal a fresh hmac.New's, and a
	// single flipped bit anywhere the MAC covers (or in the MAC itself) must
	// fail authentication.
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 16; k++ {
		key := make([]byte, 1+rng.Intn(96))
		rng.Read(key)
		mac := newFrameMAC(key)
		for f := 0; f < 8; f++ {
			pdu := make([]byte, rng.Intn(64))
			rng.Read(pdu)
			clientID, nonce := rng.Uint32(), rng.Uint64()
			frame := sealed(mac, clientID, nonce, pdu)
			if got, want := frame[clientIDLen+nonceLen:secureHeaderLen], referenceMAC(key, frame); !bytes.Equal(got, want) {
				t.Fatalf("key %d frame %d: MAC %x, fresh HMAC %x", k, f, got, want)
			}
			gotID, gotNonce, gotPDU, err := openFrame(mac, frame)
			if err != nil || gotID != clientID || gotNonce != nonce || !bytes.Equal(gotPDU, pdu) {
				t.Fatalf("key %d frame %d: open = (%d, %d, %x, %v)", k, f, gotID, gotNonce, gotPDU, err)
			}
			flips := []int{
				clientIDLen + rng.Intn(nonceLen),          // nonce
				clientIDLen + nonceLen + rng.Intn(macLen), // MAC
			}
			if len(pdu) > 0 {
				flips = append(flips, secureHeaderLen+rng.Intn(len(pdu))) // PDU
			}
			for _, i := range flips {
				bad := append([]byte(nil), frame...)
				bad[i] ^= 1 << rng.Intn(8)
				if _, _, _, err := openFrame(mac, bad); !errors.Is(err, ErrBadMAC) {
					t.Fatalf("key %d frame %d: flipped byte %d accepted (err %v)", k, f, i, err)
				}
			}
		}
	}
}

// fuzzKey is the device key FuzzOpenFrame opens frames under; the seed
// corpus's valid frame is sealed with it.
var fuzzKey = []byte("fuzz-device-key")

// FuzzOpenFrame feeds arbitrary bytes to the proxy's frame opener, the
// first code an attacker on the bus reaches. It must never panic, and a
// frame it accepts must be exactly the frame sealing its contents under the
// same key produces: nothing outside the authenticated bytes may be
// accepted.
func FuzzOpenFrame(f *testing.F) {
	mac := newFrameMAC(fuzzKey)
	f.Fuzz(func(t *testing.T, frame []byte) {
		clientID, nonce, pdu, err := openFrame(mac, frame)
		if err != nil {
			return
		}
		if resealed := sealed(mac, clientID, nonce, pdu); !bytes.Equal(resealed, frame) {
			t.Fatalf("accepted frame %x reseals as %x", frame, resealed)
		}
	})
}
