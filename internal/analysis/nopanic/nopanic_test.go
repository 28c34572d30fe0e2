package nopanic_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/nopanic"
)

func TestNoPanic(t *testing.T) {
	old := nopanic.Packages
	nopanic.Packages = []string{"td/np"}
	defer func() { nopanic.Packages = old }()

	res := analysistest.Run(t, "testdata", nopanic.Analyzer, "np")

	// The Must* convenience carries a reasoned allow: suppressed, reported
	// as in effect, and marked used.
	if len(res.Suppressed) != 1 {
		t.Errorf("suppressed = %d findings, want 1 (the excused MustSetup panic)", len(res.Suppressed))
	}
	if len(res.Suppressions) != 1 || !res.Suppressions[0].Used {
		t.Errorf("suppressions = %+v, want exactly one, used", res.Suppressions)
	}
}
