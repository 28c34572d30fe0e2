// Content-addressed table files: the immutable storage unit of the segment
// store (modeled on noms-style block stores). A table holds a contiguous run
// of sealed log records together with their chain hashes, is named by the
// hash of its own bytes, and is never modified after the rename that puts it
// in place — compaction builds replacement tables and deletes old ones, it
// never rewrites.
//
// Layout (wire varints throughout; the index precedes the record region so a
// reader can bound every allocation before touching record bytes):
//
//	magic "SNPTBL1\n"
//	node string
//	baseSeq uint          sequence of the first record
//	baseHash bytes        chain hash h_{baseSeq-1}
//	addrLen uint          chain-hash length (the suite's digest size)
//	gross int             metered wire bytes of all records (digest form)
//	ckpts count × (seq uint, size int)
//	count × (addr raw[addrLen], recLen uint)
//	record region         count concatenated canonical entry encodings
//
// The file name is <escaped-node>.<hex(H(file))>.tbl; openTable recomputes
// the hash over the mapped bytes and refuses a file whose content does not
// match its address, which preserves the store's tamper-evidence for sealed
// history without decoding a single record.
package seclog

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cryptoutil"
	"repro/internal/types"
	"repro/internal/wire"
)

var tableMagic = []byte("SNPTBL1\n")

const tableSuffix = ".tbl"

// tableRecord is one record handed to writeTable: the entry's chain hash
// (its address), its canonical wire encoding, and its metered size (digest
// form for checkpoints — what the log's gross accounting uses). ckptSize is
// zero for non-checkpoint records.
type tableRecord struct {
	addr     []byte
	rec      []byte
	metered  int64
	ckptSize int64
}

// tableFile is an open, memory-mapped table. All fields are immutable after
// openTable; addrs and record slices alias the mapping and are only valid
// until release runs (the store copies anything that escapes).
type tableFile struct {
	path    string
	hash    []byte
	data    []byte
	release func() error

	base     uint64
	baseHash []byte
	gross    int64
	ckpts    []ckptRef
	addrs    [][]byte
	offs     []int64 // record offsets into data, one per record
	lens     []int64
}

func (t *tableFile) count() uint64 { return uint64(len(t.addrs)) }
func (t *tableFile) end() uint64   { return t.base - 1 + t.count() }

// headHash is the chain hash of the table's last record.
func (t *tableFile) headHash() []byte {
	if len(t.addrs) == 0 {
		return t.baseHash
	}
	return t.addrs[len(t.addrs)-1]
}

// has reports whether seq falls inside the table.
func (t *tableFile) has(seq uint64) bool { return seq >= t.base && seq <= t.end() }

// record returns the raw encoding of record seq, aliasing the mapping.
func (t *tableFile) record(seq uint64) []byte {
	i := seq - t.base
	return t.data[t.offs[i] : t.offs[i]+t.lens[i]]
}

// addr returns the chain hash of record seq, aliasing the mapping.
func (t *tableFile) addr(seq uint64) []byte { return t.addrs[seq-t.base] }

func (t *tableFile) close() error {
	if t.release == nil {
		return nil
	}
	rel := t.release
	t.release = nil
	return rel()
}

// tableFileName maps (node, content hash) to the table's file name.
func tableFileName(node types.NodeID, hash []byte) string {
	return url.PathEscape(string(node)) + "." + hex.EncodeToString(hash) + tableSuffix
}

// listTableFiles returns the names of node's table files under dir, in
// directory order (sorted by os.ReadDir), and of the temp files writeTable
// left where a crash stopped it before the rename. Only names of the exact
// shape <escaped-node>.<hex>.tbl (plus .tmp) with a digest-length hex
// address match, so another node's files never do.
func listTableFiles(dir string, node types.NodeID, hashLen int) (tables, temps []string, err error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("seclog: store dir: %w", err)
	}
	prefix := url.PathEscape(string(node)) + "."
	for _, de := range des {
		name := de.Name()
		rest, temp := strings.CutSuffix(name, ".tmp")
		rest, ours := strings.CutPrefix(rest, prefix)
		hexPart, table := strings.CutSuffix(rest, tableSuffix)
		if de.IsDir() || !ours || !table || len(hexPart) != 2*hashLen {
			continue
		}
		if _, err := hex.DecodeString(hexPart); err != nil {
			continue
		}
		if temp {
			temps = append(temps, name)
		} else {
			tables = append(tables, name)
		}
	}
	return tables, temps, nil
}

// writeTable serializes recs into a table file under dir, fsyncs it, renames
// it to its content-hash name, and returns the opened (mapped) table. recs
// must be non-empty and in sequence order starting at base.
func writeTable(dir string, node types.NodeID, suite cryptoutil.Suite,
	base uint64, baseHash []byte, recs []tableRecord) (*tableFile, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("seclog: empty table")
	}
	var gross int64
	var ckpts []ckptRef
	for i, r := range recs {
		gross += r.metered
		if r.ckptSize > 0 {
			ckpts = append(ckpts, ckptRef{seq: base + uint64(i), size: r.ckptSize})
		}
	}
	w := wire.NewWriter(1 << 12)
	w.Raw(tableMagic)
	w.String(string(node))
	w.Uint(base)
	w.BytesField(baseHash)
	w.Uint(uint64(suite.HashSize()))
	w.Int(gross)
	w.Uint(uint64(len(ckpts)))
	for _, c := range ckpts {
		w.Uint(c.seq)
		w.Int(c.size)
	}
	w.Uint(uint64(len(recs)))
	for i, r := range recs {
		if len(r.addr) != suite.HashSize() {
			return nil, fmt.Errorf("seclog: table record %d has a %d-byte address", base+uint64(i), len(r.addr))
		}
		w.Raw(r.addr)
		w.Uint(uint64(len(r.rec)))
	}
	for _, r := range recs {
		w.Raw(r.rec)
	}
	hash := suite.Hash(w.Bytes())
	path := filepath.Join(dir, tableFileName(node, hash))
	if _, err := os.Stat(path); err == nil {
		// Identical content already sealed (same bytes hash to the same
		// address); reuse it rather than racing a rename onto ourselves.
		return openTable(path, node, suite, hash)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("seclog: write table: %w", err)
	}
	if _, err := f.Write(w.Bytes()); err != nil {
		f.Close()
		return nil, fmt.Errorf("seclog: write table: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("seclog: sync table: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("seclog: close table: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, fmt.Errorf("seclog: publish table: %w", err)
	}
	return openTable(path, node, suite, hash)
}

// openTable maps a table file and parses its header and index, verifying the
// whole-file content hash against wantHash (or against the address embedded
// in the file name when wantHash is nil). Every size in the header is
// bounded against the bytes actually present before it drives an allocation.
func openTable(path string, node types.NodeID, suite cryptoutil.Suite, wantHash []byte) (*tableFile, error) {
	if wantHash == nil {
		name := filepath.Base(path)
		dot := strings.LastIndexByte(strings.TrimSuffix(name, tableSuffix), '.')
		if dot < 0 || !strings.HasSuffix(name, tableSuffix) {
			return nil, fmt.Errorf("seclog: %s is not a table file", path)
		}
		h, err := hex.DecodeString(name[dot+1 : len(name)-len(tableSuffix)])
		if err != nil {
			return nil, fmt.Errorf("seclog: %s is not a table file", path)
		}
		wantHash = h
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("seclog: open table: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("seclog: open table: %w", err)
	}
	data, release, err := mapFile(f, fi.Size())
	// The mapping outlives the descriptor; closing f here is safe on every
	// platform we map on.
	f.Close()
	if err != nil {
		return nil, err
	}
	t, perr := parseTable(data, node, suite, wantHash)
	if perr != nil {
		_ = release()
		return nil, fmt.Errorf("seclog: table %s: %w", filepath.Base(path), perr)
	}
	t.path = path
	t.release = release
	return t, nil
}

// parseTable validates and indexes a table image. It is the adversary-facing
// decode path for sealed history (fuzzed directly), so every count is checked
// against Remaining before allocation and every offset is bounds-checked.
func parseTable(data []byte, node types.NodeID, suite cryptoutil.Suite, wantHash []byte) (*tableFile, error) {
	if !bytes.Equal(suite.Hash(data), wantHash) {
		return nil, fmt.Errorf("content does not match its address")
	}
	r := wire.NewReader(data)
	if !bytes.Equal(r.Raw(len(tableMagic)), tableMagic) {
		return nil, fmt.Errorf("bad magic")
	}
	if got := types.NodeID(r.String()); got != node {
		return nil, fmt.Errorf("belongs to node %s, not %s", got, node)
	}
	t := &tableFile{hash: append([]byte(nil), wantHash...), data: data}
	t.base = r.Uint()
	t.baseHash = r.BytesField()
	addrLen := r.Uint()
	t.gross = r.Int()
	nCkpts := r.Count()
	for i := 0; i < nCkpts; i++ {
		t.ckpts = append(t.ckpts, ckptRef{seq: r.Uint(), size: r.Int()})
	}
	count := r.Count()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if t.base == 0 {
		return nil, fmt.Errorf("invalid base sequence 0")
	}
	if addrLen != uint64(suite.HashSize()) {
		return nil, fmt.Errorf("address length %d does not match the suite", addrLen)
	}
	if count == 0 {
		return nil, fmt.Errorf("empty table")
	}
	var region int64
	for i := 0; i < count; i++ {
		addr := r.Raw(int(addrLen))
		recLen := r.Uint()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if recLen == 0 || recLen > uint64(len(data)) {
			return nil, fmt.Errorf("record %d has length %d", t.base+uint64(i), recLen)
		}
		t.addrs = append(t.addrs, addr)
		t.offs = append(t.offs, region)
		t.lens = append(t.lens, int64(recLen))
		region += int64(recLen)
	}
	if int64(r.Remaining()) != region {
		return nil, fmt.Errorf("record region is %d bytes, index says %d", r.Remaining(), region)
	}
	start := int64(len(data) - r.Remaining())
	for i := range t.offs {
		t.offs[i] += start
	}
	for _, c := range t.ckpts {
		if !t.has(c.seq) {
			return nil, fmt.Errorf("checkpoint ref %d outside %d..%d", c.seq, t.base, t.end())
		}
	}
	return t, nil
}
