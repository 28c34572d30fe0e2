package types

import (
	"testing"
	"testing/quick"

	"repro/internal/wire"
)

func TestValueRoundTrip(t *testing.T) {
	cases := []Value{S("hello"), S(""), I(0), I(-42), I(1 << 50), N("router-1")}
	for _, v := range cases {
		buf := wire.Encode(v)
		var got Value
		if err := wire.Decode(buf, &got); err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if got != v {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestValueKindValidation(t *testing.T) {
	var v Value
	if err := wire.Decode([]byte{99, 0}, &v); err == nil {
		t.Error("invalid kind accepted")
	}
}

func TestValueOrder(t *testing.T) {
	// Kinds order before payloads; within a kind, payloads order naturally.
	ordered := []Value{S("a"), S("b"), I(-1), I(5), N("a"), N("z")}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := ordered[i].Less(ordered[j])
			want := i < j
			if got != want {
				t.Errorf("Less(%v, %v) = %v, want %v", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestTupleKey(t *testing.T) {
	a := MakeTuple("link", N("r"), N("a"), I(5))
	b := MakeTuple("link", N("r"), N("a"), I(5))
	c := MakeTuple("link", N("r"), N("a"), I(6))
	if a.Key() != b.Key() {
		t.Error("equal tuples have different keys")
	}
	if a.Key() == c.Key() {
		t.Error("distinct tuples share a key")
	}
	if want := "link(@r,@a,5)"; a.Key() != want {
		t.Errorf("Key = %q, want %q", a.Key(), want)
	}
	if !a.Equal(b) || a.Equal(c) {
		t.Error("Equal is inconsistent with Key")
	}
}

func TestTupleLoc(t *testing.T) {
	tup := MakeTuple("route", N("r1"), S("10.0.0.0/8"))
	if tup.Loc() != "r1" {
		t.Errorf("Loc = %q", tup.Loc())
	}
	if !tup.HasLoc() {
		t.Error("HasLoc = false")
	}
	noLoc := MakeTuple("count", I(3))
	if noLoc.HasLoc() {
		t.Error("integer-led tuple reported a location")
	}
}

func TestTupleWireRoundTrip(t *testing.T) {
	tup := MakeTuple("cost", N("c"), N("d"), N("b"), I(5))
	buf := wire.Encode(tup)
	var got Tuple
	if err := wire.Decode(buf, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(tup) {
		t.Errorf("round trip %v -> %v", tup, got)
	}
	if got.Key() != tup.Key() {
		t.Error("decoded tuple key differs")
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := Message{
		Src:      "b",
		Dst:      "c",
		Pol:      PolAppear,
		Tuple:    MakeTuple("cost", N("c"), N("d"), N("b"), I(5)),
		SendTime: 12345,
		Seq:      7,
	}
	buf := wire.Encode(m)
	var got Message
	if err := wire.Decode(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID() != m.ID() || got.Pol != m.Pol || !got.Tuple.Equal(m.Tuple) || got.SendTime != m.SendTime {
		t.Errorf("round trip %v -> %v", m, got)
	}
}

func TestMessageIDUnique(t *testing.T) {
	m1 := Message{Src: "a", Dst: "b", Seq: 1}
	m2 := Message{Src: "a", Dst: "b", Seq: 2}
	m3 := Message{Src: "a", Dst: "c", Seq: 1}
	if m1.ID() == m2.ID() || m1.ID() == m3.ID() {
		t.Error("message IDs collide")
	}
}

func TestTupleQuickRoundTrip(t *testing.T) {
	f := func(rel string, strArg string, intArg int64) bool {
		tup := MakeTuple(rel, S(strArg), I(intArg))
		var got Tuple
		if err := wire.Decode(wire.Encode(tup), &got); err != nil {
			return false
		}
		return got.Equal(tup)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	if got := (2 * Second).String(); got != "2.000s" {
		t.Errorf("Time.String = %q", got)
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds = %v", got)
	}
}

func TestPolarityString(t *testing.T) {
	if PolAppear.String() != "+" || PolDisappear.String() != "-" || PolBoth.String() != "!" {
		t.Error("polarity strings wrong")
	}
}
