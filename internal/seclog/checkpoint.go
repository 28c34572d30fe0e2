package seclog

import (
	"bytes"
	"fmt"

	"repro/internal/cryptoutil"
	"repro/internal/types"
	"repro/internal/wire"
)

// BelievedRecord names one remote origin whose +τ supports an item.
type BelievedRecord struct {
	Origin types.NodeID
	Since  types.Time
}

// ExtantItem is one tuple recorded in a checkpoint: the tuple, when it
// appeared, whether it exists locally (vs. only being believed), and which
// peers it is believed from (§5.6: checkpoints must include all extant or
// believed tuples and, for each, the time it appeared).
type ExtantItem struct {
	Tuple    types.Tuple
	Appeared types.Time
	Local    bool
	Believed []BelievedRecord
}

// MarshalWire implements wire.Marshaler.
func (it ExtantItem) MarshalWire(w *wire.Writer) {
	it.Tuple.MarshalWire(w)
	w.Int(int64(it.Appeared))
	w.Bool(it.Local)
	w.Uint(uint64(len(it.Believed)))
	for _, b := range it.Believed {
		w.String(string(b.Origin))
		w.Int(int64(b.Since))
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (it *ExtantItem) UnmarshalWire(r *wire.Reader) error {
	if err := it.Tuple.UnmarshalWire(r); err != nil {
		return err
	}
	it.Appeared = types.Time(r.Int())
	it.Local = r.Bool()
	n := r.Count()
	if err := r.Err(); err != nil {
		return err
	}
	it.Believed = make([]BelievedRecord, n)
	for i := range it.Believed {
		it.Believed[i].Origin = types.NodeID(r.String())
		it.Believed[i].Since = types.Time(r.Int())
	}
	return r.Err()
}

// Checkpoint is a snapshot of a node's state (§5.6). The hash chain commits
// only to the digests (StateHash, Root, N); the bulky payload (MachineState
// and Items) travels out of band and is verified whole against the digests.
// Root is a Merkle root over every item, as in the paper's partial
// checkpoint downloads (§7.7), which are not offered here.
type Checkpoint struct {
	StateHash []byte // H(MachineState)
	Root      []byte // Merkle root over encoded Items
	N         uint64 // number of items

	MachineState []byte
	Items        []ExtantItem
}

// BuildCheckpoint assembles a checkpoint and computes its digests.
func BuildCheckpoint(suite cryptoutil.Suite, stats *cryptoutil.Stats,
	machineState []byte, items []ExtantItem) *Checkpoint {
	leaves := make([][]byte, len(items))
	for i, it := range items {
		leaves[i] = wire.Encode(it)
		stats.CountHash(len(leaves[i]))
	}
	stats.CountHash(len(machineState))
	return &Checkpoint{
		StateHash:    suite.Hash(machineState),
		Root:         MerkleRoot(suite, leaves),
		N:            uint64(len(items)),
		MachineState: machineState,
		Items:        items,
	}
}

// VerifyFull recomputes the digests from the payload.
func (c *Checkpoint) VerifyFull(suite cryptoutil.Suite, stats *cryptoutil.Stats) error {
	stats.CountHash(len(c.MachineState))
	if !bytes.Equal(suite.Hash(c.MachineState), c.StateHash) {
		return fmt.Errorf("seclog: checkpoint machine state does not match digest")
	}
	if uint64(len(c.Items)) != c.N {
		return fmt.Errorf("seclog: checkpoint has %d items, committed to %d", len(c.Items), c.N)
	}
	leaves := make([][]byte, len(c.Items))
	for i, it := range c.Items {
		leaves[i] = wire.Encode(it)
		stats.CountHash(len(leaves[i]))
	}
	if !bytes.Equal(MerkleRoot(suite, leaves), c.Root) {
		return fmt.Errorf("seclog: checkpoint items do not match Merkle root")
	}
	return nil
}

// MarshalWire implements wire.Marshaler (full transmission form).
func (c *Checkpoint) MarshalWire(w *wire.Writer) {
	w.BytesField(c.StateHash)
	w.BytesField(c.Root)
	w.Uint(c.N)
	w.BytesField(c.MachineState)
	w.Uint(uint64(len(c.Items)))
	for _, it := range c.Items {
		it.MarshalWire(w)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (c *Checkpoint) UnmarshalWire(r *wire.Reader) error {
	c.StateHash = r.BytesField()
	c.Root = r.BytesField()
	c.N = r.Uint()
	c.MachineState = r.BytesField()
	n := r.Count()
	if err := r.Err(); err != nil {
		return err
	}
	c.Items = make([]ExtantItem, n)
	for i := range c.Items {
		if err := c.Items[i].UnmarshalWire(r); err != nil {
			return err
		}
	}
	return r.Err()
}

// digestMarshal writes only the digest fields (what the hash chain commits
// to).
func (c *Checkpoint) digestMarshal(w *wire.Writer) {
	w.BytesField(c.StateHash)
	w.BytesField(c.Root)
	w.Uint(c.N)
}
