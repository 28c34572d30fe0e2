package provgraph

// CollideHashes gives every vertex identity the same hash until the returned
// function is called: every vertex after a graph's first is then found
// through the identity index's overflow map.
func CollideHashes() (restore func()) {
	oneHash = true
	return func() { oneHash = false }
}
