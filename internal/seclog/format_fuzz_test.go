package seclog

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/types"
	"repro/internal/wire"
)

// FuzzManifestDecode throws arbitrary bytes at the sidecar parser — the
// image is rewritten on every sync and a crash can leave anything behind, so
// decodeManifest must never panic. Accepted sidecars must round-trip through
// encodeManifest bit-stably: the canonical re-encoding decodes to itself.
func FuzzManifestDecode(f *testing.F) {
	h := bytes.Repeat([]byte{0xa5}, 32)
	real := encodeManifest(&manifest{head: 12, headHash: h})
	f.Add(real)
	f.Add(real[:len(real)-3])               // torn rewrite
	f.Add(append([]byte(nil), real[:8]...)) // magic only
	doctored := append([]byte(nil), real...)
	doctored[len(doctored)/2] ^= 0xff
	f.Add(doctored)
	// The previous generation, which also listed the tables: reads as absent.
	w := wire.NewWriter(64)
	w.Raw([]byte("SNPMET3\n"))
	w.Uint(12)
	w.BytesField(h)
	w.Uint(9)
	w.Uint(0)
	f.Add(w.Bytes())

	f.Fuzz(func(t *testing.T, raw []byte) {
		m, ok := decodeManifest(raw)
		if !ok {
			return
		}
		enc := encodeManifest(m)
		m2, ok2 := decodeManifest(enc)
		if !ok2 {
			t.Fatalf("accepted sidecar does not re-decode: %x", enc)
		}
		if !bytes.Equal(encodeManifest(m2), enc) {
			t.Fatalf("sidecar re-encoding is not stable")
		}
	})
}

// tableImage builds a real sealed-table file through the store and returns
// its bytes.
func tableImage(f *testing.F) []byte {
	dir := f.TempDir()
	key, err := testSuite.GenerateKey(1)
	if err != nil {
		f.Fatal(err)
	}
	l, err := NewStored(dir, "n1", testSuite, key, nil, 1)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		l.Append(insEntry(types.Time(i+1), "k", int64(i)))
	}
	l.SetStoreTuning(1, 1<<20)
	if err := l.Sync(); err != nil {
		f.Fatal(err)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, de := range entries {
		if strings.HasSuffix(de.Name(), tableSuffix) {
			raw, err := os.ReadFile(filepath.Join(dir, de.Name()))
			if err != nil {
				f.Fatal(err)
			}
			return raw
		}
	}
	f.Fatal("no table file sealed")
	return nil
}

// FuzzTableOpen drives the sealed-table parser with arbitrary bytes. The
// content-address check is satisfied for every input (wantHash is the hash
// of the fuzzed bytes) so the fuzzer reaches the header and index decoding
// behind it — the adversary-facing path, since a table file is whatever a
// crashed or hostile process left on disk. parseTable must never panic, and
// a table it accepts must serve every indexed record and address from
// within the mapped bytes.
func FuzzTableOpen(f *testing.F) {
	real := tableImage(f)
	f.Add(real)
	f.Add(real[:len(real)-5]) // torn tail
	doctored := append([]byte(nil), real...)
	doctored[len(doctored)/3] ^= 0x80
	f.Add(doctored)
	// Hostile record count in a minimal header.
	w := wire.NewWriter(128)
	w.Raw(tableMagic)
	w.String("n1")
	w.Uint(1)
	w.BytesField(make([]byte, 32))
	w.Uint(32)
	w.Int(100)
	w.Uint(0)
	w.Uint(1 << 50)
	f.Add(w.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := parseTable(data, "n1", testSuite, testSuite.Hash(data))
		if err != nil {
			return
		}
		for seq := tbl.base; seq <= tbl.end(); seq++ {
			rec := tbl.record(seq)
			if len(rec) == 0 {
				t.Fatalf("accepted table serves empty record %d", seq)
			}
			if len(tbl.addr(seq)) != testSuite.HashSize() {
				t.Fatalf("accepted table serves short address %d", seq)
			}
			// Record bytes need not decode (the index does not vouch for
			// entry encodings), but decoding must stay panic-free.
			_, _ = decodeRecord(seq, rec)
		}
	})
}
