package eval

import (
	"fmt"

	"repro/internal/apps/chord"
	"repro/internal/apps/mapreduce"
	"repro/internal/types"
)

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
