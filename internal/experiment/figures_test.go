package experiment

import "testing"

func TestDiscussionQuick(t *testing.T) {
	o := quickOpts()
	o.Configs = 1
	o.Iterations = 16
	r, err := Discussion(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"global", "local"} {
		if len(r.Gap[alg]) != 1 {
			t.Errorf("%s gaps = %v", alg, r.Gap[alg])
		}
		if r.Gap[alg][0] < 1.0 {
			t.Errorf("%s gap %.2f below 1 (optimum beaten?)", alg, r.Gap[alg][0])
		}
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestOrderingQuick(t *testing.T) {
	o := quickOpts()
	o.Configs = 2
	o.Iterations = 10
	r, err := Ordering(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []string{"complete-binary", "left-deep", "greedy-bandwidth"} {
		if r.AvgSpeedup[shape] <= 0 {
			t.Errorf("%s speedup = %v", shape, r.AvgSpeedup[shape])
		}
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestFigure8Quick(t *testing.T) {
	o := quickOpts()
	o.Configs = 1
	o.Iterations = 10
	r, err := Figure8(o, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.AvgSpeedup["global"]) != 2 {
		t.Errorf("speedups = %v", r.AvgSpeedup)
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestFigure7QuickHarness(t *testing.T) {
	o := quickOpts()
	o.Configs = 1
	o.Iterations = 10
	r, err := Figure7(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.AvgSpeedup) != 7 {
		t.Errorf("speedups = %v", r.AvgSpeedup)
	}
}

func TestFigure10Quick(t *testing.T) {
	o := quickOpts()
	o.Configs = 1
	o.Iterations = 10
	r, err := Figure10(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Speedups) != 2 {
		t.Errorf("shapes = %d", len(r.Speedups))
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestAblationsQuick(t *testing.T) {
	o := quickOpts()
	o.Configs = 1
	o.Iterations = 10
	r, err := Ablations(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.BaselineMeanSec <= 0 || row.VariantMeanSec <= 0 {
			t.Errorf("row %q has non-positive means: %+v", row.Name, row)
		}
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}
