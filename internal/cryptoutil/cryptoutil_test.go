package cryptoutil

import (
	"bytes"
	"testing"
)

var suites = []Suite{Ed25519SHA256}

func TestSignVerify(t *testing.T) {
	for _, s := range suites {
		t.Run(s.Name(), func(t *testing.T) {
			key, err := s.GenerateKey(1)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("why did that route change just now?")
			sig, err := key.Sign(msg)
			if err != nil {
				t.Fatal(err)
			}
			if len(sig) != 64 {
				t.Errorf("signature size = %d, want Ed25519's 64", len(sig))
			}
			if !key.Public().Verify(msg, sig) {
				t.Error("valid signature rejected")
			}
			if key.Public().Verify([]byte("other message"), sig) {
				t.Error("signature verified against wrong message")
			}
			sig[0] ^= 0xFF
			if key.Public().Verify(msg, sig) {
				t.Error("corrupted signature verified")
			}
		})
	}
}

func TestWrongKeyRejected(t *testing.T) {
	for _, s := range suites {
		t.Run(s.Name(), func(t *testing.T) {
			k1, err := s.GenerateKey(1)
			if err != nil {
				t.Fatal(err)
			}
			k2, err := s.GenerateKey(2)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("message")
			sig, err := k1.Sign(msg)
			if err != nil {
				t.Fatal(err)
			}
			if k2.Public().Verify(msg, sig) {
				t.Error("signature verified under a different node's key")
			}
		})
	}
}

func TestDeterministicKeys(t *testing.T) {
	k1, err := Ed25519SHA256.GenerateKey(42)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Ed25519SHA256.GenerateKey(42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k1.Public().Marshal(), k2.Public().Marshal()) {
		t.Error("same seed produced different keys")
	}
	k3, err := Ed25519SHA256.GenerateKey(43)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(k1.Public().Marshal(), k3.Public().Marshal()) {
		t.Error("different seeds produced the same key")
	}
}

func TestHash(t *testing.T) {
	for _, s := range suites {
		t.Run(s.Name(), func(t *testing.T) {
			h1 := s.Hash([]byte("ab"), []byte("c"))
			h2 := s.Hash([]byte("abc"))
			if !bytes.Equal(h1, h2) {
				t.Error("hash over split input differs from hash over concatenation")
			}
			if len(h1) != s.HashSize() {
				t.Errorf("hash size = %d, want %d", len(h1), s.HashSize())
			}
			h3 := s.Hash([]byte("abd"))
			if bytes.Equal(h1, h3) {
				t.Error("distinct inputs hashed equal")
			}
		})
	}
}

func TestPooledKeyCaches(t *testing.T) {
	k1, err := PooledKey(Ed25519SHA256, 7)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := PooledKey(Ed25519SHA256, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k1.Public().Marshal(), k2.Public().Marshal()) {
		t.Error("pool returned different keys for the same seed")
	}
}

func TestStats(t *testing.T) {
	var s Stats
	s.CountSign()
	s.CountSign()
	s.CountVerify()
	s.CountHash(100)
	s.CountHash(50)
	snap := s.Snapshot()
	if snap.Signs != 2 || snap.Verifies != 1 || snap.Hashes != 2 || snap.HashedBytes != 150 {
		t.Errorf("snapshot = %+v", snap)
	}
	sum := snap.Add(snap)
	if sum.Signs != 4 || sum.HashedBytes != 300 {
		t.Errorf("sum = %+v", sum)
	}
}

func TestNilStatsSafe(t *testing.T) {
	var s *Stats
	s.CountSign() // must not panic
	s.CountVerify()
	s.CountHash(10)
}

func TestDetReaderDeterministic(t *testing.T) {
	r1 := newDetReader("d", 9)
	r2 := newDetReader("d", 9)
	a := make([]byte, 100)
	b := make([]byte, 100)
	if _, err := r1.Read(a); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Read(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("deterministic reader produced different streams")
	}
}
