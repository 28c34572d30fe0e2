package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/eval"
)

// TestUnknownFigFails pins the fix for -fig <typo> printing nothing and
// exiting 0: the error must list every valid value.
func TestUnknownFigFails(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-fig", "nope"}, &out, &errOut)
	if err == nil {
		t.Fatal("-fig nope succeeded")
	}
	if out.Len() != 0 {
		t.Errorf("-fig nope printed %q", out.String())
	}
	for _, name := range validFigs() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid value %q", err, name)
		}
	}
}

// TestFigurePrintsCatalogRows checks that a figure table is the catalog's
// rows for that figure, in order, and nothing else, and that the same figure
// from logs spilled to on-disk stores prints the same bytes.
func TestFigurePrintsCatalogRows(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five configurations")
	}
	var out, errOut bytes.Buffer
	if err := run([]string{"-fig", "5", "-scale", "0.02"}, &out, &errOut); err != nil {
		t.Fatalf("%v\n%s", err, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	rows := eval.Select("5")
	if len(rows) == 0 {
		t.Fatal("the catalog has no Figure 5 rows")
	}
	if len(lines) != 1+len(rows) || !strings.HasPrefix(lines[0], "== ") {
		t.Fatalf("want a heading and %d rows, got:\n%s", len(rows), out.String())
	}
	for i, row := range rows {
		if want := "  fig5: " + string(row.Config) + " "; !strings.HasPrefix(lines[1+i], want) {
			t.Errorf("line %d = %q, want the %s row (prefix %q)", 1+i, lines[1+i], row.Name, want)
		}
	}

	var stored bytes.Buffer
	args := []string{"-fig", "5", "-scale", "0.02", "-logdir", t.TempDir(), "-hot-tail", "16"}
	if err := run(args, &stored, &errOut); err != nil {
		t.Fatalf("%v\n%s", err, errOut.String())
	}
	if stored.String() != out.String() {
		t.Errorf("store-backed table differs from the in-memory one:\n%s\nwant:\n%s", stored.String(), out.String())
	}
}
