package detpure_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/detpure"
)

func TestDetpure(t *testing.T) {
	old := detpure.Deterministic
	detpure.Deterministic = []string{"td/det"}
	defer func() { detpure.Deterministic = old }()

	res := analysistest.Run(t, "testdata", detpure.Analyzer, "det")

	// The excused time.Now in det.excusedNow must be suppressed, not just
	// unreported.
	if len(res.Suppressed) != 1 {
		t.Errorf("suppressed = %d findings, want 1 (the excused time.Now)", len(res.Suppressed))
	}
	if len(res.Suppressions) != 1 || !res.Suppressions[0].Used {
		t.Errorf("suppressions = %+v, want exactly one, used", res.Suppressions)
	}
}
