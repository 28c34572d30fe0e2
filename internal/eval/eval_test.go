package eval

import (
	"testing"

	"repro/internal/cryptoutil"
)

const testScale = Scale(0.02)

func TestQuaggaRunAndFigures(t *testing.T) {
	res, err := Run(Quagga, Options{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	f5 := Figure5(res)
	if f5.Factor <= 1 {
		t.Errorf("Quagga factor = %.2f, want > 1 (Figure 5's headline)", f5.Factor)
	}
	f6 := Figure6(res)
	if f6.MBPerMin <= 0 {
		t.Errorf("Figure6 = %+v", f6)
	}
	costs, err := MeasureCryptoCosts(cryptoutil.Ed25519SHA256)
	if err != nil {
		t.Fatal(err)
	}
	f7 := Figure7(res, costs)
	if f7.Signs == 0 || f7.TotalPct <= 0 {
		t.Errorf("Figure7 = %+v", f7)
	}
	r8, err := QuaggaDisappearQuery(res)
	if err != nil {
		t.Fatalf("disappear query: %v", err)
	}
	if r8.Answer == 0 || r8.Turnaround <= 0 {
		t.Errorf("Fig8 disappear = %+v", r8)
	}
	if r8.Red != 0 {
		t.Errorf("red vertices in a benign trace: %+v", r8)
	}
	r8b, err := QuaggaBadGadgetQuery(res)
	if err != nil {
		t.Fatalf("badgadget query: %v", err)
	}
	if r8b.Answer == 0 {
		t.Errorf("Fig8 badgadget = %+v", r8b)
	}
}

func TestChordSmallRunAndQueries(t *testing.T) {
	res, err := Run(ChordSmall, Options{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	f5 := Figure5(res)
	if f5.Factor <= 1 || f5.Messages == 0 {
		t.Errorf("Fig5 = %+v", f5)
	}
	row, err := ChordLookupQuery(res)
	if err != nil {
		t.Fatalf("lookup query: %v", err)
	}
	if row.Answer == 0 || row.Red != 0 {
		t.Errorf("Fig8 chord = %+v", row)
	}
}

func TestHadoopSmallRunAndQueries(t *testing.T) {
	res, err := Run(HadoopSmall, Options{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	f5 := Figure5(res)
	// Hadoop's overhead factor must be far below Quagga's (the Figure 5
	// shape: big payloads amortize the fixed crypto overhead).
	if f5.Factor <= 1 {
		t.Errorf("Fig5 factor = %.3f, want > 1", f5.Factor)
	}
	quagga, err := Run(Quagga, Options{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	fq := Figure5(quagga)
	if f5.Factor >= fq.Factor {
		t.Errorf("Hadoop factor %.2f not below Quagga factor %.2f (Figure 5 shape)", f5.Factor, fq.Factor)
	}
	row, err := HadoopSquirrelQuery(res)
	if err != nil {
		t.Fatalf("squirrel query: %v", err)
	}
	if row.Answer == 0 || row.Red != 0 {
		t.Errorf("Fig8 squirrel = %+v", row)
	}
}

func TestFigure9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-size Chord scaling run skipped in -short mode")
	}
	rows, err := Figure9([]int{10, 20}, Options{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		if r.SNPBytesPerSec <= r.BaseBytesPerSec {
			t.Errorf("SNP traffic not above baseline: %+v", r)
		}
		if r.LogKBPerMin <= 0 {
			t.Errorf("no log growth: %+v", r)
		}
	}
	// O(log N): per-node traffic grows slowly — going 10→20 nodes must not
	// double per-node traffic.
	if rows[1].SNPBytesPerSec > 2*rows[0].SNPBytesPerSec {
		t.Errorf("per-node traffic scales superlinearly: %v", rows)
	}
}

func TestBatchingAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("two-run ablation skipped in -short mode")
	}
	without, with, err := BatchingAblation(Options{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if with.Envelopes >= without.Envelopes {
		t.Errorf("batching did not reduce envelopes: %v vs %v", with, without)
	}
	if with.Signs >= without.Signs {
		t.Errorf("batching did not reduce signatures: %v vs %v", with, without)
	}
	if with.TrafficFactor >= without.TrafficFactor {
		t.Errorf("batching did not reduce the overhead factor: %.2f vs %.2f",
			with.TrafficFactor, without.TrafficFactor)
	}
}

// TestStoreBackedQueriesMatchMemory runs Quagga with every log spilled to a
// segment store under a hot tail of 16 entries: the run must put history on
// disk, and the Figure 5/6 series, the Fig8 disappear query's answer and its
// downloaded-byte accounting must all equal the in-memory run's.
func TestStoreBackedQueriesMatchMemory(t *testing.T) {
	memRes, err := Run(Quagga, Options{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	stRes, err := Run(Quagga, Options{Scale: testScale, LogDir: t.TempDir(), LogHotTail: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer stRes.Net.CloseLogs()
	var cold uint64
	for _, id := range stRes.Net.Nodes() {
		cold += stRes.Net.Node(id).Log.ColdEntries()
	}
	if cold == 0 {
		t.Error("no entries spilled to disk despite the hot-tail cap")
	}
	if st, mem := Figure5(stRes), Figure5(memRes); st != mem {
		t.Errorf("Figure 5 diverged:\n store: %v\n mem:   %v", st, mem)
	}
	if st, mem := Figure6(stRes), Figure6(memRes); st != mem {
		t.Errorf("Figure 6 diverged:\n store: %v\n mem:   %v", st, mem)
	}
	memRow, err := QuaggaDisappearQuery(memRes)
	if err != nil {
		t.Fatal(err)
	}
	stRow, err := QuaggaDisappearQuery(stRes)
	if err != nil {
		t.Fatal(err)
	}
	if stRow.LogBytes != memRow.LogBytes || stRow.AuthBytes != memRow.AuthBytes ||
		stRow.CkptBytes != memRow.CkptBytes || stRow.Answer != memRow.Answer || stRow.Red != memRow.Red {
		t.Errorf("store-backed query diverged:\n store: %v\n mem:   %v", stRow, memRow)
	}
}
