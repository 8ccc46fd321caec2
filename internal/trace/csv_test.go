package trace

import (
	"math"
	"strings"
	"testing"

	"wadc/internal/sim"
)

func TestCSVRoundTrip(t *testing.T) {
	orig := Generate("rt", 5, KBps(40), StudySwitchProb)
	var sb strings.Builder
	if err := WriteCSV(&sb, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(sb.String()), "rt")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != orig.Len() {
		t.Fatalf("len %d vs %d", back.Len(), orig.Len())
	}
	if back.Interval() != orig.Interval() {
		t.Fatalf("interval %v vs %v", back.Interval(), orig.Interval())
	}
	for i, want := range orig.Samples() {
		got := back.Samples()[i]
		// KB/s serialised at 4 decimal places: ~0.1 B/s precision.
		if math.Abs(float64(got-want)) > 0.2 {
			t.Fatalf("sample %d: %v vs %v", i, got, want)
		}
	}
}

func TestReadCSVWithHeader(t *testing.T) {
	in := "time_s,bandwidth_KBps\n0.000,10.0\n10.000,20.0\n20.000,30.0\n"
	tr, err := ReadCSV(strings.NewReader(in), "x")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 || tr.Interval() != 10*sim.Second {
		t.Errorf("len=%d interval=%v", tr.Len(), tr.Interval())
	}
	if tr.At(0) != KBps(10) || tr.At(25*sim.Second) != KBps(30) {
		t.Errorf("values wrong: %v %v", tr.At(0), tr.At(25*sim.Second))
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"header only", "time_s,bandwidth_KBps\n"},
		{"bad mid row", "0,10\n5,oops\n"},
		{"irregular spacing", "0,10\n10,20\n15,30\n"},
		{"non-increasing", "5,10\n5,20\n"},
		{"wrong fields", "1,2,3\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tc.in), "x"); err == nil {
				t.Errorf("no error for %q", tc.in)
			}
		})
	}
}

func TestReadCSVSingleSample(t *testing.T) {
	tr, err := ReadCSV(strings.NewReader("0,42\n"), "one")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 || tr.At(0) != KBps(42) {
		t.Errorf("tr = %v", tr.At(0))
	}
}
