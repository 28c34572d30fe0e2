package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/seclog"
)

// TestAuditedHeadCheckAuthenticator holds the flat chain to the map it
// replaced: for positions from-1, from, to and to+1 of a chain cut out of a
// real log, and for an empty chain, an authenticator the node signed is a fork
// exactly when the map had its position under another hash; and the auditor's
// CheckAuthenticator records that failure and no other.
func TestAuditedHeadCheckAuthenticator(t *testing.T) {
	const forkReason = "authenticator held by a peer is not on the presented chain (fork)"
	cfg := DefaultConfig()
	nodes, dir, factory := cachePair(t, cfg)
	n1 := nodes["n1"]
	size := cfg.suite().HashSize()
	const from, to = 3, 6
	if n1.Log.Len() <= to {
		t.Fatalf("n1's log has %d entries, need more than %d", n1.Log.Len(), to)
	}

	byPos := make(map[uint64][]byte) // seq -> h_seq, as auditedNode.hashes was
	full := &AuditedHead{node: "n1", from: from, size: size}
	for seq := uint64(from); seq <= to; seq++ {
		h, err := n1.Log.Hash(seq)
		if err != nil {
			t.Fatal(err)
		}
		byPos[seq] = h
		full.chain = append(full.chain, h...)
	}
	empty := &AuditedHead{node: "n1", from: from, size: size}

	signed := func(seq uint64, forge bool) seclog.Authenticator {
		auth, err := n1.Log.AuthenticatorAt(seq)
		if err != nil {
			t.Fatal(err)
		}
		if forge {
			auth.Hash = bytes.Repeat([]byte{0xA5}, size)
			if auth.Sig, err = n1.Log.Sign(auth.T, auth.Hash); err != nil {
				t.Fatal(err)
			}
		}
		return auth
	}
	for _, seq := range []uint64{from - 1, from, to, to + 1} {
		for _, forge := range []bool{false, true} {
			auth := signed(seq, forge)
			h, held := byPos[seq]
			want := held && !bytes.Equal(h, auth.Hash)
			f, forked := full.CheckAuthenticator(dir, nil, auth)
			if forked != want {
				t.Errorf("seq %d forged=%v: forked = %v, the map said %v", seq, forge, forked, want)
			}
			if forked && f != (Failure{Node: "n1", Seq: seq, Reason: forkReason}) {
				t.Errorf("seq %d: failure = %v", seq, f)
			}
			if _, forked := empty.CheckAuthenticator(dir, nil, auth); forked {
				t.Errorf("seq %d forged=%v: an empty chain proved a fork", seq, forge)
			}

			// Through an auditor that replayed n1's whole log: positions from-1
			// and to+1 are on its chain too, so every forgery is a fork.
			a := NewAuditor(cfg, dir, factory, nil)
			if err := a.Commit(a.Prepare("n1", retrieveAll(t, nodes)["n1"], evidenceFor(t, n1))); err != nil {
				t.Fatal(err)
			}
			a.CheckAuthenticator(auth)
			var wantFailures []Failure
			if forge {
				wantFailures = []Failure{{Node: "n1", Seq: seq, Reason: forkReason}}
			}
			if got := a.Failures(); !reflect.DeepEqual(got, wantFailures) {
				t.Errorf("seq %d forged=%v: auditor failures = %v, want %v", seq, forge, got, wantFailures)
			}
		}
	}

	// Not evidence at all: an invalid signature, and a signer whose chain
	// this is not.
	bad := signed(from, true)
	bad.Sig = append([]byte(nil), bad.Sig...)
	bad.Sig[0] ^= 1
	if _, forked := full.CheckAuthenticator(dir, nil, bad); forked {
		t.Error("an authenticator with a broken signature proved a fork")
	}
	other, err := nodes["n2"].Log.AuthenticatorAt(from)
	if err != nil {
		t.Fatal(err)
	}
	if _, forked := full.CheckAuthenticator(dir, nil, other); forked {
		t.Error("n2's authenticator proved a fork of n1's chain")
	}
	if _, forked := (*AuditedHead)(nil).CheckAuthenticator(dir, nil, signed(from, true)); forked {
		t.Error("a fork was proved against no chain")
	}
}

// TestAuditedHeadConfirms: only the node's valid signature over exactly the
// last position of the chain confirms it.
func TestAuditedHeadConfirms(t *testing.T) {
	cfg := DefaultConfig()
	nodes, dir, factory := cachePair(t, cfg)
	n1 := nodes["n1"]
	a := NewAuditor(cfg, dir, factory, nil)
	if a.AuditedHead("n1") != nil {
		t.Fatal("a head before any audit")
	}
	latest := evidenceFor(t, n1)
	if err := a.Commit(a.Prepare("n1", retrieveAll(t, nodes)["n1"], latest)); err != nil {
		t.Fatal(err)
	}
	head := a.AuditedHead("n1")
	if head == nil {
		t.Fatal("no head after a clean audit")
	}
	if head.Bytes() != int(n1.Log.Len())*cfg.suite().HashSize() {
		t.Errorf("head holds %d bytes for %d entries", head.Bytes(), n1.Log.Len())
	}
	if !head.Confirms(dir, latest) {
		t.Error("the authenticator the audit verified does not confirm its head")
	}

	older, err := n1.Log.AuthenticatorAt(latest.Seq - 1)
	if err != nil {
		t.Fatal(err)
	}
	forged := latest
	forged.Hash = bytes.Repeat([]byte{0x5A}, len(latest.Hash))
	if forged.Sig, err = n1.Log.Sign(forged.T, forged.Hash); err != nil {
		t.Fatal(err)
	}
	unsigned := latest
	unsigned.Sig = bytes.Repeat([]byte{1}, len(latest.Sig))
	foreign := latest
	foreign.Node = "n2"
	for name, auth := range map[string]seclog.Authenticator{
		"an older position": older, "another hash at the head": forged,
		"a broken signature": unsigned, "another node": foreign, "nothing": {},
	} {
		if head.Confirms(dir, auth) {
			t.Errorf("%s confirms the head", name)
		}
	}

	// The log grows: the old head no longer confirms, the new one is a new
	// audit's to verify.
	if err := n1.InsertBase(ins(99)); err != nil {
		t.Fatal(err)
	}
	if head.Confirms(dir, evidenceFor(t, n1)) {
		t.Error("a longer log confirms the old head")
	}

	// A segment that ran past the authenticator it was verified against: the
	// tail was replayed unsigned, and only the node's signature over the last
	// position makes the chain one it stands by.
	short := NewAuditor(cfg, dir, factory, nil)
	if err := short.Commit(short.Prepare("n1", retrieveAll(t, nodes)["n1"], latest)); err != nil {
		t.Fatal(err)
	}
	if h := short.AuditedHead("n1"); h.Confirms(dir, latest) || !h.Confirms(dir, evidenceFor(t, n1)) {
		t.Error("a chain is confirmed by its last position's authenticator and no earlier one")
	}
}
