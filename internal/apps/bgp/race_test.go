//go:build race

package bgp_test

func init() { raceEnabled = true }
