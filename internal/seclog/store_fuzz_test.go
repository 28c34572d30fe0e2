package seclog

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/types"
)

// fuzzTempDir returns a per-exec scratch directory on tmpfs when available.
// Open fsyncs the store it accepts, and at fuzzing rates those fsyncs hit
// real-block-device discard latency hard enough to stall workers for tens of
// seconds; tmpfs makes them free without changing what is tested.
func fuzzTempDir(t *testing.T) string {
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		dir, err := os.MkdirTemp("/dev/shm", "seclog-fuzz-*")
		if err == nil {
			t.Cleanup(func() { os.RemoveAll(dir) })
			return dir
		}
	}
	return t.TempDir()
}

// FuzzStoreOpen drives crash recovery with arbitrary on-disk state: the
// .seglog data file and .segmeta sidecar are exactly what a crashed (or
// hostile) process leaves behind, so Open must never panic, whatever the
// bytes. When it does accept a store, every entry, hash, and segment must
// be servable without a panic either — recovery that admits a store vouches
// for it.
func FuzzStoreOpen(f *testing.F) {
	// Seed with real store images: a synced multi-entry store (checkpoint
	// included), plus truncated and doctored variants — the shapes a crash
	// mid-append or mid-sidecar-rewrite actually produces.
	dir := f.TempDir()
	key, err := testSuite.GenerateKey(1)
	if err != nil {
		f.Fatal(err)
	}
	live, err := NewStored(dir, "n1", testSuite, key, nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	fillBoth(nil, live, 12, 5)
	if err := live.Close(); err != nil {
		f.Fatal(err)
	}
	seglog, err := os.ReadFile(filepath.Join(dir, storeFileName("n1")))
	if err != nil {
		f.Fatal(err)
	}
	segmeta, err := os.ReadFile(filepath.Join(dir, metaFileName("n1")))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seglog, segmeta)
	f.Add(seglog, []byte{})
	f.Add(seglog[:len(seglog)-3], segmeta)  // torn data tail
	f.Add(seglog, segmeta[:len(segmeta)/2]) // torn sidecar
	f.Add(seglog[:len(seglog)/2], segmeta)  // lost synced entries
	f.Add(append([]byte(nil), storeMagic...), segmeta)
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, data, meta []byte) {
		fdir := fuzzTempDir(t)
		if err := os.WriteFile(filepath.Join(fdir, storeFileName("n1")), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(meta) > 0 {
			if err := os.WriteFile(filepath.Join(fdir, metaFileName("n1")), meta, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l, err := Open(fdir, types.NodeID("n1"), testSuite, nil, nil, 0)
		if err != nil {
			return
		}
		defer l.Close()
		for seq := l.FirstSeq(); seq <= l.Len(); seq++ {
			if _, err := l.Entry(seq); err != nil {
				t.Fatalf("accepted store cannot serve entry %d: %v", seq, err)
			}
			if _, err := l.Hash(seq); err != nil {
				t.Fatalf("accepted store cannot serve hash %d: %v", seq, err)
			}
		}
		if l.Len() >= l.FirstSeq() {
			if _, err := l.Segment(l.FirstSeq(), l.Len()); err != nil {
				t.Fatalf("accepted store cannot serve its own segment: %v", err)
			}
		}
		_ = l.HeadHash()
		_ = l.RecoveredTornBytes()
	})
}
