package eval

// This file is the adversary scenario family: the evaluation configurations
// re-run with k compromised nodes, reporting detection-rate and evidence
// metrics in the spirit of §6.1's case studies (route hijacks, eclipse
// attacks, tampered MapReduce outputs) — but systematically, over the whole
// behavior library of internal/adversary.

import (
	"fmt"
	"strings"

	"repro/internal/adversary"
	"repro/internal/apps/chord"
	"repro/internal/apps/mapreduce"
	"repro/internal/types"
)

// AdversaryRow is one (configuration, behavior) scenario's outcome.
type AdversaryRow struct {
	Config      ConfigName
	Behavior    string
	Class       adversary.Class
	Compromised []types.NodeID

	// Detected reports whether any evidence implicates a compromised node.
	Detected bool
	// Failures/RedHosts count the provable evidence; Unresponsive and
	// Notes count the leads.
	Failures     int
	RedHosts     int
	Unresponsive int
	Notes        int
	// FalselyAccused lists honest nodes implicated by provable evidence —
	// the accuracy guarantee demands it stays empty in every scenario.
	FalselyAccused []types.NodeID
}

func (r AdversaryRow) String() string {
	return fmt.Sprintf("%-13s %-13s k=%d class=%-9s detected=%-5v failures=%-3d red=%-2d unresp=%-2d notes=%-3d falsely-accused=%v",
		r.Config, r.Behavior, len(r.Compromised), r.Class, r.Detected,
		r.Failures, r.RedHosts, r.Unresponsive, r.Notes, r.FalselyAccused)
}

// AdversarySummary aggregates a configuration's scenario family.
type AdversarySummary struct {
	Config ConfigName
	Rows   []AdversaryRow
}

// DetectionRate is the fraction of non-benign scenarios whose evidence
// implicates a compromised node. Benign behaviors have nothing to detect,
// so a family with no non-benign scenarios is vacuously perfect (1.0) —
// callers gate on rate != 1.0.
func (s AdversarySummary) DetectionRate() float64 {
	total, detected := 0, 0
	for _, r := range s.Rows {
		if r.Class == adversary.Benign {
			continue
		}
		total++
		if r.Detected {
			detected++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(detected) / float64(total)
}

// FalseAccusations counts honest nodes implicated across all scenarios.
func (s AdversarySummary) FalseAccusations() int {
	n := 0
	for _, r := range s.Rows {
		n += len(r.FalselyAccused)
	}
	return n
}

// AdversaryConfigs are the configurations the scenario family runs on: one
// per application.
var AdversaryConfigs = []ConfigName{Quagga, ChordSmall, HadoopSmall}

// CompromisedFor picks k deterministic compromised nodes for a
// configuration and behavior: transit routers for Quagga, spread ring
// members for Chord, and for Hadoop a position matched to the behavior —
// §6.1's attackers choose where to sit, and on a unidirectional dataflow an
// acknowledgment attack is vacuous on a mapper (which only sends), so the
// ack-tier behaviors compromise a reducer instead.
func CompromisedFor(name ConfigName, behavior string, k int) ([]types.NodeID, error) {
	if k < 1 {
		k = 1
	}
	receiverSide := behavior == "withhold-acks" || behavior == "replay-acks"
	var pool []types.NodeID
	switch name {
	case Quagga:
		pool = []types.NodeID{"as30", "as40", "as10", "as20"}
	case ChordSmall, ChordLarge:
		pool = []types.NodeID{chord.NodeName(3), chord.NodeName(17), chord.NodeName(31), chord.NodeName(42)}
	case HadoopSmall, HadoopLarge:
		pool = []types.NodeID{mapreduce.MapperName(0), mapreduce.MapperName(7), mapreduce.MapperName(3)}
		if receiverSide {
			pool = []types.NodeID{mapreduce.ReducerName(0), mapreduce.ReducerName(3), mapreduce.ReducerName(7)}
		}
	default:
		return nil, fmt.Errorf("eval: no adversary positions for config %q", name)
	}
	if k > len(pool) {
		k = len(pool)
	}
	return pool[:k], nil
}

// SelectBehaviors resolves a comma-separated behavior filter ("all" or
// empty selects the whole catalog).
func SelectBehaviors(filter string) ([]adversary.Profile, error) {
	if filter == "" || filter == "all" {
		return adversary.Catalog(), nil
	}
	var out []adversary.Profile
	for _, name := range strings.Split(filter, ",") {
		p, ok := adversary.ProfileByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("eval: unknown adversary behavior %q", name)
		}
		out = append(out, p)
	}
	return out, nil
}

// AdversaryScenarios runs one configuration once per behavior with k
// compromised nodes, audits the whole deployment after each run, and
// reports the evidence metrics. Behaviors are armed at deploy time through
// Options.OnNode, so the honest deployment code runs unmodified.
func AdversaryScenarios(name ConfigName, o Options, k int, behaviors []adversary.Profile) (AdversarySummary, error) {
	sum := AdversarySummary{Config: name}
	for _, p := range behaviors {
		compromised, err := CompromisedFor(name, p.Name, k)
		if err != nil {
			return sum, err
		}
		plan := adversary.Plan{}
		for _, id := range compromised {
			plan[id] = []adversary.Behavior{p.New()}
		}
		ao := o
		ao.OnNode = plan.Hook()
		res, err := Run(name, ao)
		if err != nil {
			return sum, fmt.Errorf("eval: %s under %s: %w", name, p.Name, err)
		}
		q := res.NewQuerier()
		v := adversary.AuditAll(q, res.Net.Maintainer)
		sum.Rows = append(sum.Rows, AdversaryRow{
			Config:         name,
			Behavior:       p.Name,
			Class:          p.Class,
			Compromised:    compromised,
			Detected:       v.Detected(compromised),
			Failures:       len(v.Failures),
			RedHosts:       len(v.RedHosts),
			Unresponsive:   len(v.Unresponsive),
			Notes:          len(v.Notes),
			FalselyAccused: v.FalselyAccused(compromised),
		})
		_ = res.Net.CloseLogs()
	}
	return sum, nil
}
