// The manifest generalizes the old single-record sidecar: besides the last
// synced head it pins the set of sealed table files (by content address) and
// the base sequence of the active tail file. It is still one small file,
// rewritten atomically (tmp + rename) on every sync, seal, and compaction
// swap — the single commit point for every structural change to the store.
package seclog

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/wire"
)

// manifestTable is one sealed table reference: its content address plus the
// record range it claims, so recovery can detect a missing or swapped file
// before mapping anything.
type manifestTable struct {
	hash  []byte
	base  uint64
	count uint64
}

func (mt manifestTable) end() uint64 { return mt.base - 1 + mt.count }

// manifestTables is the manifest's reference to each of tables.
func manifestTables(tables []*tableFile) []manifestTable {
	mts := make([]manifestTable, 0, len(tables))
	for _, t := range tables {
		mts = append(mts, manifestTable{hash: t.hash, base: t.base, count: t.count()})
	}
	return mts
}

// manifest mirrors the sidecar file. The log it describes starts at entry 1
// on h_0, so it records only where the log ends and where its records are.
type manifest struct {
	head     uint64
	headHash []byte
	tailBase uint64
	tables   []manifestTable
}

func encodeManifest(m *manifest) []byte {
	w := wire.NewWriter(128)
	w.Raw(metaMagic)
	w.Uint(m.head)
	w.BytesField(m.headHash)
	w.Uint(m.tailBase)
	w.Uint(uint64(len(m.tables)))
	for _, t := range m.tables {
		w.BytesField(t.hash)
		w.Uint(t.base)
		w.Uint(t.count)
	}
	return w.Bytes()
}

// decodeManifest parses a sidecar image. ok is false for anything that is
// not a complete, well-formed manifest — the caller treats that as an absent
// sidecar (see readMeta), never as an error.
func decodeManifest(raw []byte) (*manifest, bool) {
	if len(raw) < len(metaMagic) || !bytes.Equal(raw[:len(metaMagic)], metaMagic) {
		return nil, false
	}
	r := wire.NewReader(raw[len(metaMagic):])
	m := &manifest{}
	m.head = r.Uint()
	m.headHash = r.BytesField()
	m.tailBase = r.Uint()
	n := r.Count()
	for i := 0; i < n; i++ {
		m.tables = append(m.tables, manifestTable{
			hash:  r.BytesField(),
			base:  r.Uint(),
			count: r.Uint(),
		})
	}
	if r.Finish() != nil {
		return nil, false
	}
	// Structural sanity: tables must be non-empty, contiguous, and end
	// before the tail base. A manifest that fails these is as useless as a
	// torn one.
	prevEnd := uint64(0)
	for i, t := range m.tables {
		if t.count == 0 || t.base == 0 || len(t.hash) == 0 {
			return nil, false
		}
		if i > 0 && t.base != prevEnd+1 {
			return nil, false
		}
		prevEnd = t.end()
	}
	if len(m.tables) > 0 && m.tailBase != prevEnd+1 {
		return nil, false
	}
	return m, true
}

// readMeta loads the sidecar; ok is false when none exists (a store that was
// never synced) — or when the bytes do not decode as a manifest.
//
// A missing, truncated, or garbled sidecar is treated as absent rather than
// fatal: the sidecar is rewritten (tmp + rename) on every sync, and a crash
// racing that rewrite on a non-atomic filesystem can leave torn bytes behind.
// Recovery then falls back to reassembling whatever verifies on disk — table
// files vouch for themselves (content address + embedded chain), the tail is
// replayed against its header hash. The cost of the fallback is
// discrimination, not safety: without a trusted synced head the store cannot
// distinguish a tamperer who truncated the file from a crash that lost a
// tail — the same epistemic state as a store that was never synced. The §4.2
// guarantee is unaffected either way, because provable evidence rests on
// peer-held authenticators, never on the node's own sidecar. Only a real I/O
// error (unreadable file) remains fatal.
func readMeta(path string) (*manifest, bool, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("seclog: store meta: %w", err)
	}
	m, ok := decodeManifest(raw)
	return m, ok, nil
}
