package adversary_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/types"
)

// TestVerdictCheckGuarantee pins the §4.2 oracle itself, class by class, on
// hand-built verdicts: which runs conform, and which breach each run that
// does not is charged with.
func TestVerdictCheckGuarantee(t *testing.T) {
	bad := []types.NodeID{"b"}
	down := errors.New("unreachable")
	failure := func(n types.NodeID) []core.Failure { return []core.Failure{{Node: n, Reason: "chain mismatch"}} }
	note := []core.MissingAckNote{{Reporter: "c", ID: types.MessageID{Src: "c", Dst: "b", Seq: 1}}}

	cases := []struct {
		name      string
		v         adversary.Verdict
		class     adversary.Class
		victim    types.NodeID
		identical bool
		want      []string // one substring per expected breach, in order
	}{
		{name: "provable/exposed", v: adversary.Verdict{Failures: failure("b")}, class: adversary.Provable},
		{name: "provable/exposed-by-red-host", v: adversary.Verdict{RedHosts: bad}, class: adversary.Provable},
		{name: "provable/only-a-lead", v: adversary.Verdict{Notes: note}, class: adversary.Provable,
			want: []string{"no provable evidence"}},
		{name: "provable/nothing", v: adversary.Verdict{}, class: adversary.Provable,
			want: []string{"no provable evidence", "neither evidence nor unchanged"}},
		{name: "provable/honest-accused", v: adversary.Verdict{Failures: failure("b"), RedHosts: []types.NodeID{"c"}},
			class: adversary.Provable, want: []string{"implicates honest nodes [c]"}},
		{name: "traceable/lead", v: adversary.Verdict{Notes: note}, class: adversary.Traceable},
		{name: "traceable/unresponsive-compromised",
			v: adversary.Verdict{Unresponsive: map[types.NodeID]error{"b": down}}, class: adversary.Traceable},
		{name: "traceable/invisible-but-harmless", v: adversary.Verdict{}, class: adversary.Traceable, identical: true},
		{name: "traceable/invisible-and-harmful", v: adversary.Verdict{}, class: adversary.Traceable,
			want: []string{"honest answers diverged", "neither evidence nor unchanged"}},
		{name: "benign/clean", v: adversary.Verdict{}, class: adversary.Benign, identical: true},
		{name: "benign/evidence", v: adversary.Verdict{RedHosts: bad}, class: adversary.Benign, identical: true,
			want: []string{"benign behavior produced provable evidence"}},
		{name: "benign/perturbed", v: adversary.Verdict{}, class: adversary.Benign,
			want: []string{"perturbed honest answers", "neither evidence nor unchanged"}},
		{name: "victim/lead", v: adversary.Verdict{Failures: failure("b"), Unresponsive: map[types.NodeID]error{"d": down}},
			class: adversary.Provable, victim: "d"},
		{name: "victim/answered", v: adversary.Verdict{Failures: failure("b")}, class: adversary.Provable, victim: "d",
			want: []string{"d missing from the unresponsive tier"}},
		{name: "victim/in-provable-tier",
			v: adversary.Verdict{Failures: append(failure("b"), failure("d")...),
				Unresponsive: map[types.NodeID]error{"d": down}},
			class: adversary.Provable, victim: "d",
			want: []string{"implicates honest nodes [d]", "d in the provable tier"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.v.CheckGuarantee(tc.class, bad, tc.victim, tc.identical)
			if len(got) != len(tc.want) {
				t.Fatalf("breaches = %q, want %d matching %q", got, len(tc.want), tc.want)
			}
			for i, want := range tc.want {
				if !strings.Contains(got[i], want) {
					t.Errorf("breach %d = %q, want it to mention %q", i, got[i], want)
				}
			}
		})
	}

	// An adversary-free run is the Benign case with nobody compromised: any
	// provable evidence at all is a false accusation.
	honest := adversary.Verdict{RedHosts: []types.NodeID{"c"}}
	if got := honest.CheckGuarantee(adversary.Benign, nil, "", true); len(got) != 2 {
		t.Errorf("honest run with a red host: breaches = %q, want accusation + benign-evidence", got)
	}
}
