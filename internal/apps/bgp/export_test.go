package bgp

// OnPath and PathLen expose the path scanners to the fuzz test.
var (
	OnPath  = onPath
	PathLen = pathLen
)
