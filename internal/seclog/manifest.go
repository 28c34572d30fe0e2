// The sidecar is what is left of the store's manifest: it records the one
// fact the store's files cannot, the last head the node durably synced. The
// files themselves are the manifest — table files describe themselves and
// the tail header anchors the chain (see Open) — so the sidecar holds only
// its magic and that head. It is one small file, rewritten atomically (tmp +
// rename) on every sync; seals and folds never touch it.
package seclog

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/wire"
)

// manifest mirrors the sidecar file: the synced head (sequence and chain
// hash) of a log that starts at entry 1 on h_0.
type manifest struct {
	head     uint64
	headHash []byte
}

func encodeManifest(m *manifest) []byte {
	w := wire.NewWriter(64)
	w.Raw(metaMagic)
	w.Uint(m.head)
	w.BytesField(m.headHash)
	return w.Bytes()
}

// decodeManifest parses a sidecar image. ok is false for anything that is
// not a complete, well-formed sidecar of this generation — the caller treats
// that as an absent sidecar (see readMeta), never as an error.
func decodeManifest(raw []byte) (*manifest, bool) {
	if len(raw) < len(metaMagic) || !bytes.Equal(raw[:len(metaMagic)], metaMagic) {
		return nil, false
	}
	r := wire.NewReader(raw[len(metaMagic):])
	m := &manifest{head: r.Uint(), headHash: r.BytesField()}
	if r.Finish() != nil {
		return nil, false
	}
	return m, true
}

// readMeta loads the sidecar; ok is false when none exists (a store that was
// never synced) — or when the bytes do not decode as a sidecar.
//
// A missing, truncated, or garbled sidecar is treated as absent rather than
// fatal: the sidecar is rewritten (tmp + rename) on every sync, and a crash
// racing that rewrite on a non-atomic filesystem can leave torn bytes behind.
// Recovery does not need it to find the log — the tables vouch for
// themselves (content address + embedded chain) and the tail is replayed
// against its header hash. What is lost is discrimination, not safety:
// without a trusted synced head the store cannot distinguish a tamperer who
// truncated the file from a crash that lost a tail — the same epistemic
// state as a store that was never synced. The §4.2 guarantee is unaffected
// either way, because provable evidence rests on peer-held authenticators,
// never on the node's own sidecar. Only a real I/O error (unreadable file)
// remains fatal.
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
