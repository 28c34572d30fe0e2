package repro

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/scenarios/*.golden from this run")

// TestScenarioTranscripts runs the six scenario programs — which the rest of
// the suite only builds — and compares everything they print, timestamps
// included, with testdata/scenarios/<name>.golden. A transcript carries the
// virtual time, the clock skew and the order of every scenario input against
// its node's ticks and periodic actions, so a change to how a program
// schedules its inputs, or to the simulator under it, may not move a byte.
// Only when a transcript is meant to change: go test -run
// TestScenarioTranscripts -update, and review the diff.
func TestScenarioTranscripts(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go run for six programs")
	}
	for _, sc := range []struct {
		name string
		args []string
	}{
		{"quickstart", []string{"./examples/quickstart"}},
		{"bgp-forensics", []string{"./examples/bgp-forensics"}},
		{"chord-eclipse", []string{"./examples/chord-eclipse"}},
		{"mapreduce-squirrel", []string{"./examples/mapreduce-squirrel"}},
		{"snp-forensics-suppress", []string{"./cmd/snp-forensics", "-scenario", "suppress"}},
		{"snp-forensics-badgadget", []string{"./cmd/snp-forensics", "-scenario", "badgadget"}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			cmd := exec.Command("go", append([]string{"run"}, sc.args...)...)
			cmd.Stderr = os.Stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("go run %v: %v", sc.args, err)
			}
			golden := filepath.Join("testdata", "scenarios", sc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("transcript differs from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}
