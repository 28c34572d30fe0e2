package transport

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
	"repro/internal/wire"
)

// countingServer accepts connections, counts them, and handles each one
// with handle (nil means: close immediately). It stands in for a peer that
// is up at the TCP level but never gives the fetcher a useful answer, so
// every attempt fails and the retry loop's pacing becomes observable as an
// accept count.
type countingServer struct {
	ln      net.Listener
	accepts atomic.Uint64
	wg      sync.WaitGroup
}

func startCountingServer(t *testing.T, handle func(net.Conn)) *countingServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &countingServer{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.accepts.Add(1)
			if handle == nil {
				conn.Close()
				continue
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				handle(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		s.wg.Wait()
	})
	return s
}

// TestRetryBackoffFloorNoHotSpin is the regression test for the
// zero-RetryBase hot spin: with cfg.RetryBase and cfg.RetryMax both 0 the
// old call loop computed jitter(0) == 0 and backoff *= 2 kept it at 0, so
// one logical call against an unhelpful peer redialed in a busy loop until
// the retry deadline — thousands of attempts. With the backoff floored,
// the attempts over a 250ms deadline stay in the low tens.
func TestRetryBackoffFloorNoHotSpin(t *testing.T) {
	// The server closes every accepted conn immediately: each attempt
	// dials fine, then fails on the response read, which is the retried
	// (non-final) error class.
	srv := startCountingServer(t, nil)

	c := NewClusterWith(Config{})
	defer c.Close()
	// Simulate the zero/unset retry config the bug needs (NewClusterWith
	// floors these, so reach into the config the way a zeroed struct
	// literal would leave it).
	c.cfg.RetryBase, c.cfg.RetryMax = 0, 0
	c.AddPeer("mute", srv.ln.Addr().String())

	f := c.NewFetcher("querier")
	defer f.Close()
	f.CallTimeout = 100 * time.Millisecond
	f.RetryDeadline = 250 * time.Millisecond

	if _, err := f.LatestAuth("mute"); err == nil {
		t.Fatal("LatestAuth against a mute peer should fail")
	}
	attempts := srv.accepts.Load()
	t.Logf("attempts in 250ms deadline: %d", attempts)
	if attempts == 0 {
		t.Fatal("fetcher never reached the peer; the test exercised nothing")
	}
	if attempts > 64 {
		t.Fatalf("retry loop spun hot: %d attempts for one logical call within a 250ms deadline", attempts)
	}
}

// TestHalfFrameDropped is the regression test for the read loop without a
// read deadline: a client that sent the start of a frame and stalled — two
// bytes of the length, or a whole length and half the body it announces —
// held a server goroutine and a connection forever. The rest of a begun frame
// now has the server's WriteTimeout to arrive; past it the connection closes,
// counted as a broken read, and its read loop's goroutine is gone. A
// connection that idles between frames, before its first one included, keeps
// no deadline.
func TestHalfFrameDropped(t *testing.T) {
	const deadline = 150 * time.Millisecond
	srv, _ := startToyServer(t, deadline)
	whole := rawFrame(t, toyEcho, 1, func(w *wire.Writer) { w.String("x"); w.Uint(1) })
	serving := len(goroutinesIn(servingMarker)) // the accept loop
	for _, c := range []struct {
		name string
		part []byte
	}{
		{"two header bytes", whole[:2]},
		{"half a body", whole[:4+(len(whole)-4)/2]},
	} {
		t.Run(c.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			errs := srv.Stats.DecodeErrors.Load()
			start := time.Now()
			if _, err := conn.Write(c.part); err != nil {
				t.Fatal(err)
			}
			expectDropped(t, conn, c.name)
			if took := time.Since(start); took > deadline+500*time.Millisecond {
				t.Errorf("the connection closed %v after the stall, deadline %v", took, deadline)
			}
			if got := srv.Stats.DecodeErrors.Load(); got != errs+1 {
				t.Errorf("DecodeErrors went %d → %d, want +1", errs, got)
			}
			left := len(goroutinesIn(servingMarker))
			for wait := 0; left > serving && wait < 100; wait++ {
				time.Sleep(10 * time.Millisecond)
				left = len(goroutinesIn(servingMarker))
			}
			if left > serving {
				t.Errorf("%d server goroutines outlived the stalled connection", left-serving)
			}
		})
	}

	t.Run("idle between frames", func(t *testing.T) {
		c := toyCaller(t, srv.Addr())
		errs := srv.Stats.DecodeErrors.Load()
		if err := c.Connect("toy"); err != nil {
			t.Fatal(err)
		}
		for i := range 2 {
			time.Sleep(3 * deadline)
			if got, err := echo(c, "ok", 1); err != nil || got != "ok" {
				t.Fatalf("call %d after idling: %q, %v", i, got, err)
			}
		}
		if got := srv.Stats.DecodeErrors.Load(); got != errs {
			t.Errorf("idle connection counted %d broken reads", got-errs)
		}
	})
}

// TestRemoteFetcherCloseConcurrent pins the Close vs in-flight call
// semantics under -race, for a cluster's fetcher and for the bare Caller
// under it (which is also all a queryfront.Client is): concurrent callers
// blocked mid-exchange fail once Close lands (they do not keep redialing the
// peer), post-Close calls fail fast with ErrClosed, and no connection is
// closed twice or leaked (the race detector plus the nil-conn guard in
// closeConn cover that).
func TestRemoteFetcherCloseConcurrent(t *testing.T) {
	// The server swallows requests and never answers, so in-flight calls
	// are parked in the response read when Close hits them.
	srv := startCountingServer(t, func(conn net.Conn) {
		_, _ = io.Copy(io.Discard, conn)
		conn.Close()
	})
	addr := srv.ln.Addr().String()

	c := NewClusterWith(Config{})
	defer c.Close()
	c.AddPeer("mute", addr)

	// Each input builds a fresh caller and returns its call and its Close.
	inputs := map[string]func() (call func() error, closeIt func()){
		"fetcher": func() (func() error, func()) {
			f := c.NewFetcher("querier")
			f.CallTimeout, f.RetryDeadline = 400*time.Millisecond, 2*time.Second
			return func() error { _, err := f.LatestAuth("mute"); return err }, f.Close
		},
		"caller": func() (func() error, func()) {
			cl := NewCaller("querier", DefaultMaxFrame, Backoff{}, 1,
				func(types.NodeID) (net.Conn, error) { return net.DialTimeout("tcp", addr, time.Second) })
			cl.CallTimeout, cl.RetryDeadline = 400*time.Millisecond, 2*time.Second
			return func() error { return cl.Call("mute", 0x42, nil, func(*wire.Reader) {}) }, cl.Close
		},
	}
	for name, build := range inputs {
		t.Run(name, func(t *testing.T) {
			for round := 0; round < 8; round++ {
				call, closeIt := build()

				var wg sync.WaitGroup
				start := make(chan struct{})
				for w := 0; w < 4; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						if err := call(); err == nil {
							t.Error("call against a mute peer succeeded")
						}
					}()
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					time.Sleep(time.Duration(round) * 3 * time.Millisecond)
					closeIt()
					closeIt() // idempotent
				}()
				close(start)

				done := make(chan struct{})
				go func() { wg.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("calls did not unwind after Close; in-flight calls must fail, not retry to the full deadline")
				}

				if err := call(); !errors.Is(err, ErrClosed) {
					t.Fatalf("post-Close call error = %v, want ErrClosed", err)
				}
			}
		})
	}
}
