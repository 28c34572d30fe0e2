package maporder_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/maporder"
)

func TestMapOrder(t *testing.T) {
	old := maporder.Deterministic
	maporder.Deterministic = []string{"repro/mo"}
	defer func() { maporder.Deterministic = old }()

	analysistest.Run(t, "testdata", maporder.Analyzer, "mo")
}
