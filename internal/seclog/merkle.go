package seclog

import "repro/internal/cryptoutil"

// A checkpoint entry commits to its items through the root of a Merkle hash
// tree over their encodings (§7.7, where the tree lets a querier verify part
// of a checkpoint). No retrieve serves part of a checkpoint here, so an
// auditor recomputes the root over every item (Checkpoint.VerifyFull). Leaves are hashed with a 0x00 domain prefix and
// interior nodes with 0x01, preventing second-preimage splices between
// levels; an odd node is promoted to the next level unchanged.

func merkleLeaf(suite cryptoutil.Suite, data []byte) []byte {
	return suite.Hash([]byte{0}, data)
}

func merkleNode(suite cryptoutil.Suite, left, right []byte) []byte {
	return suite.Hash([]byte{1}, left, right)
}

// MerkleRoot computes the root over the given leaf datas. The root of zero
// leaves is the hash of an empty leaf.
func MerkleRoot(suite cryptoutil.Suite, leaves [][]byte) []byte {
	if len(leaves) == 0 {
		return merkleLeaf(suite, nil)
	}
	level := make([][]byte, len(leaves))
	for i, l := range leaves {
		level[i] = merkleLeaf(suite, l)
	}
	for len(level) > 1 {
		var next [][]byte
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, merkleNode(suite, level[i], level[i+1]))
			} else {
				// Odd node is promoted unchanged.
				next = append(next, level[i])
			}
		}
		level = next
	}
	return level[0]
}
