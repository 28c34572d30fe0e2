package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"time"
)

// This file measures the host, not the program. The machines this benchmark
// runs on are a few virtual CPUs of a shared host whose speed changes with
// what its other tenants do: over the 25 minutes of one study the same
// restart took 0.35 s, 0.55 s and 2 s in turn, for minutes at a time. A
// wall-clock number from such a host says when it was measured, not what
// the code costs. So every timed stretch is bracketed by a small fixed task
// from the standard library (nothing of this repository runs in it), and
// its time is divided by how slow that task was just then. What comes out
// is seconds on a host of the reference speed.

// refNominal is how long the reference task takes, in seconds, on the class
// of host this benchmark was written on (2 vCPU of a Xeon at 2.1 GHz) while
// the host is quiet. It only fixes the scale: slowness 1 means "as fast as
// that".
const refNominal = 6.0e-3

// host probes the speed of the machine with the reference task.
type host struct {
	pub      ed25519.PublicKey
	msg, sig []byte
	buf      []byte

	last   float64 // the latest probe
	lastAt time.Time
	seen   []float64 // every probe made
}

func newHost() *host {
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	h := &host{pub: priv.Public().(ed25519.PublicKey), msg: make([]byte, 40), buf: make([]byte, 1<<20)}
	h.sig = ed25519.Sign(priv, h.msg)
	return h
}

// reference runs the reference task once and returns its wall time: a
// hundred Ed25519 verifications and the SHA-256 of one MiB. It is pure
// computation on a few cache-resident buffers and allocates nothing, so the
// program's heap and the collector do not show in it; Ed25519 and SHA-256
// are also what the measured paths spend most of their time in.
func (h *host) reference() float64 {
	t0 := time.Now()
	for i := 0; i < 100; i++ {
		if !ed25519.Verify(h.pub, h.msg, h.sig) {
			panic("bench: the reference signature does not verify")
		}
	}
	sum := sha256.Sum256(h.buf)
	h.buf[0] = sum[0]
	return time.Since(t0).Seconds()
}

// probeRuns is how many runs of the reference task make one probe: fifty
// milliseconds of the host, long enough to average over its short stalls.
const probeRuns = 8

// slowness probes the host: the mean time of probeRuns runs of the reference
// task over its nominal time. The mean, because a timed stretch is slowed by
// the host's stalls in proportion to the time they take, and so is the mean;
// the fastest run would report the host between its stalls. A probe no older
// than two milliseconds is used again, so that the end of one timed stretch
// and the start of the next share one.
func (h *host) slowness() float64 {
	if !h.lastAt.IsZero() && time.Since(h.lastAt) < 2*time.Millisecond {
		return h.last
	}
	var sum float64
	for i := 0; i < probeRuns; i++ {
		sum += h.reference()
	}
	h.last, h.lastAt = sum/probeRuns/refNominal, time.Now()
	h.seen = append(h.seen, h.last)
	return h.last
}

// stopwatch times a stretch of work made of one or more segments. Each
// segment lies between two probes and is normalised by their mean; the
// probes themselves are outside the time.
type stopwatch struct {
	h    *host
	lap  lap
	s0   float64
	from time.Time
}

// lap is a measured time: as the wall clock saw it, and normalised to the
// reference host speed.
type lap struct{ raw, norm float64 }

func (l lap) plus(m lap) lap { return lap{l.raw + m.raw, l.norm + m.norm} }

// start opens a stopwatch's first segment.
func (h *host) start() *stopwatch {
	sw := &stopwatch{h: h}
	sw.resume()
	return sw
}

// pause closes the running segment.
func (sw *stopwatch) pause() lap {
	d := time.Since(sw.from).Seconds()
	s1 := sw.h.slowness()
	sw.lap = sw.lap.plus(lap{d, d / ((sw.s0 + s1) / 2)})
	return sw.lap
}

// resume opens the next segment.
func (sw *stopwatch) resume() {
	sw.s0 = sw.h.slowness()
	sw.from = time.Now()
}

// mark ends one segment and begins the next: a long stretch is cut up so
// that no part of it is further than a segment from a probe.
func (sw *stopwatch) mark() {
	sw.pause()
	sw.resume()
}

// time runs fn as one segment.
func (h *host) time(fn func()) lap {
	sw := h.start()
	fn()
	return sw.pause()
}
