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

// TestReserveThenVerify: a reserved triple's Verify waits for the reserved
// check and counts exactly one hit, with its answer, for a valid and an
// invalid signature alike; a second reservation of a reserved or cached
// triple is nil.
func TestReserveThenVerify(t *testing.T) {
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
	bad := append([]byte(nil), sig...)
	bad[0] ^= 0xff
	for _, tc := range []struct {
		name string
		sig  []byte
		want bool
	}{{"valid", sig, true}, {"invalid", bad, false}} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewVerifyCache()
			check := c.Reserve(pub, msg, tc.sig)
			if check == nil {
				t.Fatal("reservation of a fresh triple is nil")
			}
			if c.Reserve(pub, msg, tc.sig) != nil {
				t.Error("a busy triple was reserved twice")
			}
			stats := new(Stats)
			got := make(chan bool)
			go func() { got <- c.Verify(stats, pub, msg, tc.sig) }()
			check()
			if v := <-got; v != tc.want {
				t.Errorf("Verify = %v, want %v", v, tc.want)
			}
			if hits := stats.VerifyCacheHits.Load(); hits != 1 {
				t.Errorf("%d hits, want 1", hits)
			}
			if c.Reserve(pub, msg, tc.sig) != nil {
				t.Error("a cached triple was reserved")
			}
		})
	}
}

// TestReserveRacingVerifiers: every Verify caller racing one reservation
// gets its answer and counts a hit, whoever arrives before the check runs.
func TestReserveRacingVerifiers(t *testing.T) {
	key, err := PooledKey(Ed25519SHA256, 42)
	if err != nil {
		t.Fatal(err)
	}
	pub := key.Public()
	const callers, rounds = 8, 20
	for round := 0; round < rounds; round++ {
		msg := []byte{byte(round)}
		sig, err := key.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		c := NewVerifyCache()
		stats := new(Stats)
		check := c.Reserve(pub, msg, sig)
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if !c.Verify(stats, pub, msg, sig) {
					t.Error("valid signature rejected")
				}
			}()
		}
		check()
		wg.Wait()
		if hits := stats.VerifyCacheHits.Load(); hits != callers {
			t.Fatalf("round %d: %d hits from %d callers racing a reservation, want %d", round, hits, callers, callers)
		}
	}
}

// TestResetAfterReservationsDrain: once every reserved check has run, the
// busy set is empty, so a Reset leaves nothing in flight to land in the
// fresh map.
func TestResetAfterReservationsDrain(t *testing.T) {
	key, err := PooledKey(Ed25519SHA256, 42)
	if err != nil {
		t.Fatal(err)
	}
	c := NewVerifyCache()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		msg := []byte{byte(i)}
		sig, err := key.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		check := c.Reserve(key.Public(), msg, sig)
		wg.Add(1)
		go func() {
			defer wg.Done()
			check()
		}()
	}
	wg.Wait()
	c.Reset()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.busy) != 0 || len(c.m) != 0 {
		t.Errorf("after the drain and a Reset: %d busy, %d cached", len(c.busy), len(c.m))
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
