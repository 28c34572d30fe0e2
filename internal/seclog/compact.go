// Background compaction for the segment store: folds accumulations of small
// sealed tables into one wide table (structural sharing — record bytes and
// chain hashes are copied verbatim, never re-encoded or re-hashed).
//
// Compaction only ever touches sealed tables; the active tail, the synced
// head, the sidecar and the chain itself are invariant under it. A fold
// builds and fsyncs the replacement table, then deletes the tables it
// replaced, which is its commit point: a crash before it leaves both on
// disk, and Open walks through the replacement (it reaches furthest back)
// and removes the rest, whose records the walk holds hash for hash.
package seclog

import (
	"fmt"
	"os"
)

// maybeCompactLocked starts a background fold when there are more sealed
// tables than foldAt. Single-flight; callers hold mu.
func (s *Store) maybeCompactLocked() {
	if s.compacting || s.closed || len(s.tables) <= s.foldAt {
		return
	}
	s.compacting = true
	s.wg.Add(1)
	go s.compactLoop()
}

func (s *Store) compactLoop() {
	defer s.wg.Done()
	err := s.compactOnce()
	s.mu.Lock()
	s.compacting = false
	if err != nil {
		s.compactErr = err
	}
	s.mu.Unlock()
}

// compactOnce folds a snapshot of the sealed tables into one. New tables
// sealed while it runs only ever append to the list, and the single-flight
// flag keeps a second pass from replacing the prefix, so the snapshot is
// still a prefix of s.tables at swap time.
func (s *Store) compactOnce() error {
	s.mu.Lock()
	snap := append([]*tableFile(nil), s.tables...)
	foldAt := s.foldAt
	s.mu.Unlock()
	if len(snap) <= foldAt {
		return nil // raced a SetStoreTuning that raised the threshold
	}
	folded, err := s.foldTables(snap)
	if err != nil {
		return err
	}

	if s.hooks.MidCompact != nil {
		s.hooks.MidCompact()
	}

	// Serve from the replacement, then delete what it replaced.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = folded.close()
		_ = os.Remove(folded.path)
		return nil
	}
	if len(s.tables) < len(snap) {
		s.mu.Unlock()
		return fmt.Errorf("seclog: compaction snapshot is no longer a prefix")
	}
	s.tables = append([]*tableFile{folded}, s.tables[len(snap):]...)
	s.mu.Unlock()

	// A fold that produced identical content reuses the same file — never
	// delete the path the new table lives at.
	for _, t := range snap {
		if t.path == folded.path {
			continue
		}
		if cerr := t.close(); cerr != nil && err == nil {
			err = cerr
		}
		if rerr := os.Remove(t.path); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// foldTables builds one table holding every record of the given run. Record
// bytes and addresses are shared structurally from the source mappings;
// nothing is re-encoded or re-hashed except the new file's own content
// address.
func (s *Store) foldTables(live []*tableFile) (*tableFile, error) {
	var recs []tableRecord
	for _, t := range live {
		for seq := t.base; seq <= t.end(); seq++ {
			metered := int64(len(t.record(seq)))
			var ckptSize int64
			for _, c := range t.ckpts {
				if c.seq == seq {
					metered = c.size
					ckptSize = c.size
				}
			}
			recs = append(recs, tableRecord{addr: t.addr(seq), rec: t.record(seq), metered: metered, ckptSize: ckptSize})
		}
	}
	return writeTable(s.dir, s.node, s.suite, live[0].base, live[0].baseHash, recs)
}
