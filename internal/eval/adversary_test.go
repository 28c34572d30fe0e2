package eval

import "testing"

func TestCompromisedFor(t *testing.T) {
	for _, cfg := range AllConfigs {
		ids, err := CompromisedFor(cfg, "forge", 2)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if len(ids) != 2 {
			t.Errorf("%s: got %v", cfg, ids)
		}
	}
	// On Hadoop, acknowledgment attacks sit on the receiver side.
	mids, _ := CompromisedFor(HadoopSmall, "forge", 1)
	rids, _ := CompromisedFor(HadoopSmall, "withhold-acks", 1)
	if mids[0] == rids[0] {
		t.Errorf("Hadoop positions not behavior-aware: %v vs %v", mids, rids)
	}
	if _, err := CompromisedFor("nope", "forge", 1); err == nil {
		t.Error("unknown config accepted")
	}
}
