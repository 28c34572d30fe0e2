package cryptoutil

import (
	"sync"
	"testing"
)

func TestVerifyCache(t *testing.T) {
	key, err := PooledKey(Ed25519SHA256, 42)
	if err != nil {
		t.Fatal(err)
	}
	pub := key.Public()
	msg := []byte("material")
	sig, err := key.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}

	c := NewVerifyCache()
	stats := new(Stats)
	if !c.Verify(stats, pub, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if hits := stats.VerifyCacheHits.Load(); hits != 0 {
		t.Fatalf("first verification hit the cache (%d hits)", hits)
	}
	if !c.Verify(stats, pub, msg, sig) {
		t.Fatal("cached valid signature rejected")
	}
	if hits := stats.VerifyCacheHits.Load(); hits != 1 {
		t.Fatalf("second verification missed the cache (%d hits)", hits)
	}

	// Negative results are memoized too, and must stay negative.
	bad := append([]byte(nil), sig...)
	bad[0] ^= 0xff
	for i := 0; i < 2; i++ {
		if c.Verify(stats, pub, msg, bad) {
			t.Fatal("invalid signature accepted")
		}
	}

	// A different key must not alias the same (msg, sig) entry.
	key2, err := PooledKey(Ed25519SHA256, 43)
	if err != nil {
		t.Fatal(err)
	}
	if c.Verify(stats, key2.Public(), msg, sig) {
		t.Fatal("signature accepted under the wrong key")
	}

	c.Reset()
	before := stats.VerifyCacheHits.Load()
	if !c.Verify(stats, pub, msg, sig) {
		t.Fatal("valid signature rejected after reset")
	}
	if stats.VerifyCacheHits.Load() != before {
		t.Fatal("reset cache still served a hit")
	}
}

// TestVerifyCacheConcurrentHitCount: callers that race for one uncached
// triple share one verification, so the hit count is the same however they
// interleave — the pipelined audit sweep is held to the serial one's counts.
func TestVerifyCacheConcurrentHitCount(t *testing.T) {
	key, err := PooledKey(Ed25519SHA256, 42)
	if err != nil {
		t.Fatal(err)
	}
	pub := key.Public()
	const callers, rounds = 8, 50
	for round := 0; round < rounds; round++ {
		msg := []byte{byte(round)}
		sig, err := key.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		c := NewVerifyCache()
		stats := new(Stats)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if !c.Verify(stats, pub, msg, sig) {
					t.Error("valid signature rejected")
				}
			}()
		}
		close(start)
		wg.Wait()
		if hits := stats.VerifyCacheHits.Load(); hits != callers-1 {
			t.Fatalf("round %d: %d hits from %d concurrent callers, want %d", round, hits, callers, callers-1)
		}
	}
}
