package seclog

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

// buildSyncedStore creates a store-backed log with n entries and a durably
// synced head, closes it, and returns the dir plus the head state.
func buildSyncedStore(t *testing.T, n int) (dir string, headSeq uint64, headHash []byte) {
	t.Helper()
	live, dir := newStoredTestLog(t, 0)
	fillBoth(nil, live, n, 0)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, live.Len(), live.HeadHash()
}

func reopenAndCheck(t *testing.T, dir string, wantLen uint64, wantHead []byte) {
	t.Helper()
	rec, err := Open(dir, "n1", testSuite, nil, nil, 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer rec.Close()
	if rec.Len() != wantLen {
		t.Fatalf("recovered %d entries, want %d", rec.Len(), wantLen)
	}
	if !bytes.Equal(rec.HeadHash(), wantHead) {
		t.Error("recovered head hash differs")
	}
}

// TestSidecarMissing pins the fallback: with the sidecar deleted entirely,
// Open must replay the full chain and recover every record that reached the
// data file, not refuse the store.
func TestSidecarMissing(t *testing.T) {
	dir, n, head := buildSyncedStore(t, 15)
	if err := os.Remove(filepath.Join(dir, metaFileName("n1"))); err != nil {
		t.Fatal(err)
	}
	reopenAndCheck(t, dir, n, head)
}

// TestSidecarTruncated simulates a crash racing the sidecar rewrite on a
// filesystem without atomic rename: every proper prefix of the sidecar bytes
// must be treated as absent (full-chain replay), never as an error.
func TestSidecarTruncated(t *testing.T) {
	dir, n, head := buildSyncedStore(t, 15)
	path := filepath.Join(dir, metaFileName("n1"))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Open(dir, "n1", testSuite, nil, nil, 0)
		if err != nil {
			t.Fatalf("Open with sidecar cut to %d bytes: %v", cut, err)
		}
		if rec.Len() != n || !bytes.Equal(rec.HeadHash(), head) {
			rec.Close()
			t.Fatalf("sidecar cut to %d: recovered %d entries", cut, rec.Len())
		}
		// Open heals the sidecar; re-damage it from the original for the
		// next iteration.
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSidecarGarbage: arbitrary bytes in place of the sidecar (wrong magic,
// magic plus trailing junk, pure noise) fall back to full-chain replay.
func TestSidecarGarbage(t *testing.T) {
	dir, n, head := buildSyncedStore(t, 12)
	path := filepath.Join(dir, metaFileName("n1"))
	for _, garbage := range [][]byte{
		[]byte("not a sidecar at all"),
		bytes.Repeat([]byte{0xff}, 64),
		append(append([]byte(nil), metaMagic...), bytes.Repeat([]byte{0xee}, 40)...),
		append(append([]byte(nil), metaMagic...), 0x01),
		{0x00},
	} {
		if err := os.WriteFile(path, garbage, 0o644); err != nil {
			t.Fatal(err)
		}
		reopenAndCheck(t, dir, n, head)
	}
}

// TestSidecarOlderGenerationAbsent: sidecars of the SNPMET2 generation
// (which also recorded a retention boundary and the gross byte count) and of
// the SNPMET3 one (which also listed the tables) read as absent, as if the
// store had never synced. Each planted here claims a synced head past the
// data file's, which Open would refuse if it believed it.
func TestSidecarOlderGenerationAbsent(t *testing.T) {
	dir, n, head := buildSyncedStore(t, 12)
	met2 := wire.NewWriter(128)
	met2.Raw([]byte("SNPMET2\n"))
	met2.Uint(1)          // first
	met2.BytesField(nil)  // first hash
	met2.Uint(n + 5)      // synced head
	met2.BytesField(head) // synced head hash
	met2.Int(4096)        // gross
	met2.Uint(1)          // tail base
	met2.Uint(0)          // tables
	met3 := wire.NewWriter(128)
	met3.Raw([]byte("SNPMET3\n"))
	met3.Uint(n + 5)      // synced head
	met3.BytesField(head) // synced head hash
	met3.Uint(1)          // tail base
	met3.Uint(0)          // tables
	for _, w := range []*wire.Writer{met2, met3} {
		if err := os.WriteFile(filepath.Join(dir, metaFileName("n1")), w.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, ok, err := ReadSidecar(dir, "n1"); ok || err != nil {
			t.Fatalf("ReadSidecar of an older sidecar: ok=%v err=%v, want absent", ok, err)
		}
		reopenAndCheck(t, dir, n, head)
	}
}

// TestSidecarHealedAfterOpen: recovery rewrites a fresh sidecar, so the
// *next* Open regains the synced-head tamper check.
func TestSidecarHealedAfterOpen(t *testing.T) {
	dir, n, _ := buildSyncedStore(t, 10)
	metaPath := filepath.Join(dir, metaFileName("n1"))
	if err := os.WriteFile(metaPath, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(dir, "n1", testSuite, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	headSeq, _, ok, err := ReadSidecar(dir, "n1")
	if err != nil || !ok {
		t.Fatalf("sidecar not healed after Open: ok=%v err=%v", ok, err)
	}
	if headSeq != n {
		t.Fatalf("healed sidecar has head=%d, want %d", headSeq, n)
	}
	// With the healed sidecar, chopping synced entries off the data file is
	// once again refused as evidence loss, not mistaken for a crash.
	dataPath := filepath.Join(dir, storeFileName("n1"))
	raw, err := os.ReadFile(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dataPath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, "n1", testSuite, nil, nil, 0); err == nil {
		t.Fatal("store that lost synced entries accepted after sidecar heal")
	}
}

// TestSidecarValidStillEnforced: the fallback must not weaken the check when
// the sidecar IS intact — a valid sidecar whose synced head exceeds the
// recovered chain still fails Open.
func TestSidecarValidStillEnforced(t *testing.T) {
	live, dir := newStoredTestLog(t, 0)
	fillBoth(nil, live, 10, 0)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	// Drop the last record from the data file; the sidecar still vouches for
	// head 10.
	dataPath := filepath.Join(dir, storeFileName("n1"))
	raw, err := os.ReadFile(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dataPath, raw[:len(raw)-40], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, "n1", testSuite, nil, nil, 0); err == nil {
		t.Fatal("store missing synced entries accepted")
	}
}

// TestStoreHooksTornWrite drives the MidFlush crash-injection hook: the
// snapshot taken between the two halves of the split group write is exactly
// the disk image a SIGKILL at that instant leaves behind, and recovery must
// truncate the torn last record and report the torn bytes.
func TestStoreHooksTornWrite(t *testing.T) {
	live, dir := newStoredTestLog(t, 0)
	crashDir := t.TempDir()

	var appended []uint64
	snapped := false
	ok := live.SetStoreHooks(StoreHooks{
		AfterAppend: func(seq uint64) { appended = append(appended, seq) },
		MidFlush: func() {
			if snapped {
				return
			}
			snapped = true
			for _, name := range []string{storeFileName("n1"), metaFileName("n1")} {
				raw, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					if os.IsNotExist(err) {
						continue
					}
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(crashDir, name), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		},
	})
	if !ok {
		t.Fatal("SetStoreHooks returned false for a store-backed log")
	}
	fillBoth(nil, live, 8, 0)
	if len(appended) != 8 || appended[0] != 1 || appended[7] != 8 {
		t.Fatalf("AfterAppend saw seqs %v, want 1..8", appended)
	}
	if err := live.Flush(); err != nil { // triggers the split write + snapshot
		t.Fatal(err)
	}
	if !snapped {
		t.Fatal("MidFlush hook never fired")
	}

	rec, err := Open(crashDir, "n1", testSuite, nil, nil, 0)
	if err != nil {
		t.Fatalf("Open of mid-flush crash image: %v", err)
	}
	defer rec.Close()
	if rec.Len() != 7 {
		t.Fatalf("recovered %d entries from torn image, want 7 (8th torn)", rec.Len())
	}
	if rec.RecoveredTornBytes() == 0 {
		t.Error("RecoveredTornBytes = 0 for a torn image")
	}
	if !bytes.Equal(rec.HeadHash(), mustHash(t, live, 7)) {
		t.Error("recovered head does not match the intact prefix")
	}
	// The in-memory hook accounting aside, the live log itself is unharmed:
	// the second half of the split write completed.
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	reopenAndCheck(t, dir, 8, live.HeadHash())
}

// TestSyncedHeadAccessor pins the SyncedHead/ReadSidecar agreement contract
// the multi-process harness relies on to verify post-crash log heads.
func TestSyncedHeadAccessor(t *testing.T) {
	mem := newTestLog(t)
	if seq, hash := mem.SyncedHead(); seq != 0 || hash != nil {
		t.Error("in-memory log reported a synced head")
	}
	live, dir := newStoredTestLog(t, 0)
	fillBoth(nil, live, 6, 0)
	if err := live.Sync(); err != nil {
		t.Fatal(err)
	}
	seq, hash := live.SyncedHead()
	if seq != 6 || !bytes.Equal(hash, live.HeadHash()) {
		t.Fatalf("SyncedHead = (%d, %x), want (6, head)", seq, hash)
	}
	scSeq, scHash, ok, err := ReadSidecar(dir, "n1")
	if err != nil || !ok {
		t.Fatalf("ReadSidecar: ok=%v err=%v", ok, err)
	}
	if scSeq != seq || !bytes.Equal(scHash, hash) {
		t.Error("ReadSidecar disagrees with SyncedHead")
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	if !live.SetStoreHooks(StoreHooks{}) {
		t.Error("SetStoreHooks on closed store-backed log returned false")
	}
	if mem.SetStoreHooks(StoreHooks{}) {
		t.Error("SetStoreHooks on in-memory log returned true")
	}
}
