// Package det is configured as deterministic in the test; every
// nondeterminism root reachable from here must be flagged.
package det

import (
	"math/rand"
	"time"

	"td/helper"
)

// ElapsedShape is the previously-live core/query.go shape: wall-clock
// timing wrapped around replay work.
func ElapsedShape() time.Duration {
	start := time.Now() // want `call to time.Now in deterministic package`
	doWork()
	return time.Since(start) // want `call to time.Since in deterministic package`
}

func doWork() {}

// GlobalRand draws from the runtime-seeded global generator.
func GlobalRand() int {
	return rand.Intn(6) // want `call to math/rand.Intn in deterministic package`
}

// SeededOK uses the sanctioned deterministic API: an explicit source.
func SeededOK(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(6)
}

// CrossPackage reaches time.Now through a dependency; the finding rides on
// the Impure fact exported while helper was analyzed.
func CrossPackage() time.Time {
	return helper.WallDeadline() // want `reaches time.Now`
}

// UseClock reaches the root through a method fact (Clock.Stamp).
func UseClock(c helper.Clock) time.Time {
	return c.Stamp() // want `reaches time.Now`
}

// PureCall is fine: helper.Pure carries no fact.
func PureCall() int { return helper.Pure() }

//snpvet:allow detpure latency metric only; never feeds replayed state
func excusedNow() time.Time { return time.Now() }

// CallerOfExcused must not be flagged: the allow stops propagation, so the
// excused helper does not taint its callers.
func CallerOfExcused() time.Time { return excusedNow() }
