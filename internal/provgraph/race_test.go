//go:build race

package provgraph

func init() { raceEnabled = true }
