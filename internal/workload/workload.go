// Package workload holds the one definition of an application deployment
// every driver runs (Workload, timeline.go) and generates the synthetic
// inputs for the evaluation (§7.1): a RouteViews-style BGP update trace and
// a Zipf-distributed text corpus standing in for the WebBase Wikipedia
// crawl. All generators are seeded and deterministic.
package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// BGPUpdate is one trace element.
type BGPUpdate struct {
	// Origin indexes into the set of stub networks.
	Origin int
	Prefix string
	// Withdraw retracts the prefix instead of announcing it.
	Withdraw bool
}

// BGPTrace generates an update trace: announcements with periodic
// withdrawals and re-announcements over a bounded prefix pool, matching the
// announce-heavy mix of public BGP traces.
func BGPTrace(seed int64, updates, origins, prefixPool int) []BGPUpdate {
	rng := rand.New(rand.NewSource(seed))
	announced := make(map[string]int) // prefix -> origin
	out := make([]BGPUpdate, 0, updates)
	for len(out) < updates {
		p := fmt.Sprintf("10.%d.%d.0/24", rng.Intn(prefixPool)/250, rng.Intn(250))
		if o, ok := announced[p]; ok && rng.Intn(100) < 30 {
			// ~30% of updates touching a live prefix are withdrawals.
			out = append(out, BGPUpdate{Origin: o, Prefix: p, Withdraw: true})
			delete(announced, p)
			continue
		}
		if _, ok := announced[p]; ok {
			continue // already announced; try again
		}
		o := rng.Intn(origins)
		announced[p] = o
		out = append(out, BGPUpdate{Origin: o, Prefix: p})
	}
	return out
}

// vocabulary used by the corpus generator; "squirrel" is guaranteed to be
// present so the Figure 4 investigation has a target word.
var baseVocab = []string{
	"the", "of", "and", "to", "in", "a", "is", "was", "for", "on", "as",
	"with", "by", "at", "from", "it", "an", "be", "this", "which", "or",
	"were", "are", "not", "but", "their", "one", "new", "first", "page",
	"history", "world", "city", "state", "war", "time", "system", "network",
	"data", "node", "route", "forest", "park", "river", "squirrel", "fox",
}

// Corpus generates n splits of roughly bytesPerSplit of Zipf-distributed
// text each.
func Corpus(seed int64, n, bytesPerSplit int) []string {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1.0, uint64(len(baseVocab)-1))
	splits := make([]string, n)
	var sb strings.Builder
	for i := range splits {
		sb.Reset()
		for sb.Len() < bytesPerSplit {
			sb.WriteString(baseVocab[zipf.Uint64()])
			sb.WriteByte(' ')
		}
		splits[i] = sb.String()
	}
	return splits
}

// CountWord counts occurrences of word across splits (ground truth for
// tests).
func CountWord(splits []string, word string) int64 {
	var n int64
	for _, s := range splits {
		for _, w := range strings.Fields(s) {
			if w == word {
				n++
			}
		}
	}
	return n
}
