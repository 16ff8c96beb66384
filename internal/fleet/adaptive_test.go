package fleet

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
)

func TestCoarseValues(t *testing.T) {
	cases := []struct {
		min, max, k int
		want        []int
	}{
		{2, 10, 3, []int{2, 6, 10}},
		{2, 10, 9, []int{2, 3, 4, 5, 6, 7, 8, 9, 10}},
		{0, 1, 4, []int{0, 1}}, // dedup on narrow ranges
		{5, 9, 2, []int{5, 9}},
	}
	for _, tc := range cases {
		got := coarseValues(tc.min, tc.max, tc.k)
		if len(got) != len(tc.want) {
			t.Fatalf("coarseValues(%d,%d,%d) = %v, want %v", tc.min, tc.max, tc.k, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("coarseValues(%d,%d,%d) = %v, want %v", tc.min, tc.max, tc.k, got, tc.want)
			}
		}
	}
}

func TestSteepestBracket(t *testing.T) {
	pts := []ratePoint{{2, 0.9}, {4, 0.85}, {8, 0.2}, {12, 0.15}}
	lo, hi, drop, ok := steepestBracket(pts)
	if !ok || lo != 4 || hi != 8 || math.Abs(drop-0.65) > 1e-9 {
		t.Fatalf("steepest = (%d, %d, %v, %v)", lo, hi, drop, ok)
	}
	// Rising curves count the same as falling ones (absolute change).
	pts = []ratePoint{{2, 0.1}, {4, 0.8}, {8, 0.9}}
	if lo, hi, _, _ = steepestBracket(pts); lo != 2 || hi != 4 {
		t.Fatalf("rising steepest = (%d, %d)", lo, hi)
	}
	// Flat curve and tiny curves have no bracket.
	if _, _, _, ok = steepestBracket([]ratePoint{{2, 0.5}, {9, 0.5}}); ok {
		t.Fatal("flat curve produced a bracket")
	}
	if _, _, _, ok = steepestBracket([]ratePoint{{2, 0.5}}); ok {
		t.Fatal("single point produced a bracket")
	}
}

func TestNextBisect(t *testing.T) {
	fresh := func(int) bool { return false }
	pts := []ratePoint{{2, 0.9}, {8, 0.1}}
	mid, ok := nextBisect(pts, 1, fresh)
	if !ok || mid != 5 {
		t.Fatalf("nextBisect = (%d, %v), want (5, true)", mid, ok)
	}
	// A bracket already at resolution stops the search.
	if _, ok = nextBisect([]ratePoint{{4, 0.9}, {5, 0.1}}, 1, fresh); ok {
		t.Fatal("resolution-wide bracket still bisected")
	}
	if mid, ok = nextBisect([]ratePoint{{4, 0.9}, {8, 0.1}}, 2, fresh); !ok || mid != 6 {
		t.Fatalf("resolution=2 bisect = (%d, %v)", mid, ok)
	}
	// A midpoint already evaluated (and skipped as unrunnable) is a wall:
	// the search must stop, not re-evaluate it forever.
	if _, ok = nextBisect(pts, 1, func(v int) bool { return v == 5 }); ok {
		t.Fatal("already-evaluated midpoint bisected again")
	}
}

// TestBisectionLocatesSyntheticCliff drives the exact decision loop
// RunAdaptiveSweep uses (coarseValues + nextBisect + steepestBracket)
// against a synthetic step curve, pinning the acceptance property in
// isolation: the search localizes the cliff to one grid step using far
// fewer evaluations than the uniform grid.
func TestBisectionLocatesSyntheticCliff(t *testing.T) {
	const min, max, cliff = 2, 41, 30 // rate steps down between 29 and 30
	rate := func(v int) float64 {
		if v < cliff {
			return 0.95
		}
		return 0.05
	}
	points := make(map[int]float64)
	curve := func() []ratePoint {
		pts := make(map[int]*AdaptivePoint, len(points))
		for v, r := range points {
			agg := &Aggregate{DeliveryRate: r}
			pts[v] = &AdaptivePoint{Value: v, CellResult: CellResult{Agg: agg}}
		}
		return validCurve(pts)
	}
	for _, v := range coarseValues(min, max, 4) {
		points[v] = rate(v)
	}
	seen := func(v int) bool {
		_, ok := points[v]
		return ok
	}
	for budget := 32; budget > 0; budget-- {
		mid, ok := nextBisect(curve(), 1, seen)
		if !ok {
			break
		}
		if _, dup := points[mid]; dup {
			t.Fatalf("bisection revisited value %d", mid)
		}
		points[mid] = rate(mid)
	}
	lo, hi, drop, ok := steepestBracket(curve())
	if !ok || lo != cliff-1 || hi != cliff || drop < 0.8 {
		t.Fatalf("located (%d, %d, %.2f, %v), want (%d, %d)", lo, hi, drop, ok, cliff-1, cliff)
	}
	uniform := max - min + 1
	if len(points) >= uniform {
		t.Fatalf("bisection used %d evaluations, uniform grid is %d", len(points), uniform)
	}
	if len(points) > 12 {
		t.Fatalf("bisection used %d evaluations for a 40-value range, want O(coarse + log)", len(points))
	}
}

// adaptiveFixture is the deterministic real-protocol fixture for the C
// axis: f-AME vs the greedy jammer, sized so c can range over [2, 10].
func adaptiveFixture() Scenario {
	return Scenario{
		Name: "adaptive-fixture", Proto: ProtoFame,
		N: 26, C: 2, T: 1, Pairs: 8, Adversary: "worst",
	}
}

// TestAdaptiveSweepLocatesDropOnCAxis is the acceptance-criteria test: on
// the deterministic fixture, the adaptive search must locate the same
// steepest delivery-rate bracket as the exhaustive uniform reference
// (every value evaluated, same value-derived seeds) while evaluating
// fewer cells.
func TestAdaptiveSweepLocatesDropOnCAxis(t *testing.T) {
	base := AdaptiveSweep{
		Base: adaptiveFixture(), Axis: AxisC,
		Min: 2, Max: 10,
		Runs: 40, Seed: 7,
	}

	adaptive := base
	adaptive.Coarse = 3
	got, err := RunAdaptiveSweep(context.Background(), adaptive)
	if err != nil {
		t.Fatal(err)
	}

	reference := base
	reference.Coarse = base.Max - base.Min + 1 // the full uniform grid
	want, err := RunAdaptiveSweep(context.Background(), reference)
	if err != nil {
		t.Fatal(err)
	}

	if want.Threshold == nil || got.Threshold == nil {
		t.Fatalf("missing threshold: adaptive %+v, reference %+v", got.Threshold, want.Threshold)
	}
	if got.Threshold.Hi-got.Threshold.Lo > 1 {
		t.Fatalf("bracket (%d, %d) wider than one grid step", got.Threshold.Lo, got.Threshold.Hi)
	}
	if got.Threshold.Lo != want.Threshold.Lo || got.Threshold.Hi != want.Threshold.Hi {
		t.Fatalf("adaptive bracket (%d, %d) != uniform reference (%d, %d)",
			got.Threshold.Lo, got.Threshold.Hi, want.Threshold.Lo, want.Threshold.Hi)
	}
	if len(got.Points) >= got.UniformCells {
		t.Fatalf("adaptive evaluated %d points, uniform grid is %d", len(got.Points), got.UniformCells)
	}
	// Shared points carry identical aggregates: seeds derive from the axis
	// value, not the search path.
	ref := make(map[int]*Aggregate)
	for _, pt := range want.Points {
		ref[pt.Value] = pt.Agg
	}
	for _, pt := range got.Points {
		if pt.Agg == nil {
			continue
		}
		if ref[pt.Value] == nil || ref[pt.Value].DeliveryRate != pt.Agg.DeliveryRate {
			t.Fatalf("value %d: adaptive and reference disagree", pt.Value)
		}
	}
}

// TestAdaptiveDeterminism: the JSON report must be byte-identical across
// worker counts.
func TestAdaptiveDeterminism(t *testing.T) {
	s := AdaptiveSweep{
		Base: fastScenario(), Axis: AxisC,
		Min: 2, Max: 6, Coarse: 3,
		Runs: 6, Seed: 9,
	}
	var blobs [][]byte
	for _, workers := range []int{1, 8} {
		run := s
		run.Workers = workers
		res, err := RunAdaptiveSweep(context.Background(), run)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		blob, err := res.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatalf("adaptive JSON differs between workers=1 and workers=8:\n%s\nvs\n%s", blobs[0], blobs[1])
	}
}

func TestAdaptiveSweepValidate(t *testing.T) {
	good := AdaptiveSweep{Base: fastScenario(), Axis: AxisC, Min: 2, Max: 6, Runs: 4}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	sg, ok := Lookup("securegroup-hop")
	if !ok {
		t.Fatal("securegroup-hop missing")
	}
	cases := map[string]func(*AdaptiveSweep){
		"no base":     func(s *AdaptiveSweep) { s.Base = Scenario{} },
		"no runs":     func(s *AdaptiveSweep) { s.Runs = 0 },
		"bad axis":    func(s *AdaptiveSweep) { s.Axis = "kappa" },
		"empty range": func(s *AdaptiveSweep) { s.Min, s.Max = 6, 2 },
		"em on fame":  func(s *AdaptiveSweep) { s.Axis = AxisEm },
		// em <= 0 selects the scenario default, so such points would run
		// the default workload under a fake label.
		"em from zero":    func(s *AdaptiveSweep) { s.Base, s.Axis, s.Min, s.Max = sg, AxisEm, 0, 8 },
		"budget < coarse": func(s *AdaptiveSweep) { s.Coarse, s.MaxCells = 5, 3 },
	}
	for name, mutate := range cases {
		s := good
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

// TestAdaptiveSkipsInvalidPoints: values outside the model bounds are
// recorded as skipped, excluded from bisection, and the threshold comes
// from the runnable curve alone.
func TestAdaptiveSkipsInvalidPoints(t *testing.T) {
	// At N=20, C >= 8 violates the f-AME model bound, so the top of the
	// range is unrunnable.
	res, err := RunAdaptiveSweep(context.Background(), AdaptiveSweep{
		Base: fastScenario(), Axis: AxisC,
		Min: 2, Max: 10, Coarse: 5,
		Runs: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	skipped, runnable := 0, 0
	for _, pt := range res.Points {
		switch {
		case pt.Skip != "" && pt.Agg == nil:
			skipped++
			if pt.Value < 8 {
				t.Fatalf("runnable value %d skipped: %s", pt.Value, pt.Skip)
			}
		case pt.Agg != nil && pt.Skip == "":
			runnable++
		default:
			t.Fatalf("point %d has inconsistent state: %+v", pt.Value, pt)
		}
	}
	if skipped == 0 || runnable == 0 {
		t.Fatalf("want a mix of skipped and runnable points, got %d/%d", skipped, runnable)
	}
	if th := res.Threshold; th != nil && (th.Lo >= 8 || th.Hi >= 8) {
		t.Fatalf("threshold bracket (%d, %d) uses skipped values", th.Lo, th.Hi)
	}
}

// TestAdaptiveSkippedMidpointTerminates reproduces the search hitting an
// invalid value inside its steepest bracket: at N=130, C=18 the
// auto-regime switch makes t=2 fail validation while t=1 and t=3 run, so
// bisecting [1, 3] lands on a skipped midpoint. The search must treat it
// as a wall and terminate with the unrefined bracket, not re-evaluate the
// skipped value forever.
func TestAdaptiveSkippedMidpointTerminates(t *testing.T) {
	base := Scenario{
		Name: "wall", Proto: ProtoFame,
		N: 130, C: 18, T: 1, Pairs: 6, Adversary: "worst",
	}
	res, err := RunAdaptiveSweep(context.Background(), AdaptiveSweep{
		Base: base, Axis: AxisT,
		Min: 1, Max: 3, Coarse: 2,
		Runs: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("evaluated %d points, want 3 (1, 2, 3)", len(res.Points))
	}
	if res.Points[1].Value != 2 || res.Points[1].Skip == "" {
		t.Fatalf("midpoint t=2 not skipped: %+v", res.Points[1])
	}
	if res.Points[0].Agg == nil || res.Points[2].Agg == nil {
		t.Fatalf("endpoints did not run: %+v", res.Points)
	}
}

// TestAdaptiveAllPointsInvalid: a range in which nothing is runnable must
// fail like an all-invalid cartesian sweep, not report a flat empty curve
// with exit 0.
func TestAdaptiveAllPointsInvalid(t *testing.T) {
	_, err := RunAdaptiveSweep(context.Background(), AdaptiveSweep{
		Base: fastScenario(), Axis: AxisC,
		Min: 100, Max: 200, Coarse: 3, // every C exceeds the N=20 model bound
		Runs: 4, Seed: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "none of the") {
		t.Fatalf("all-invalid adaptive sweep: err = %v", err)
	}
}

func TestAdaptiveCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunAdaptiveSweep(ctx, AdaptiveSweep{
		Base: fastScenario(), Axis: AxisC, Min: 2, Max: 6, Runs: 4, Seed: 1,
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want Canceled", err)
	}
	for _, pt := range res.Points {
		if pt.Agg != nil && pt.Agg.Runs != 0 {
			t.Fatalf("pre-cancelled sweep executed %d runs at value %d", pt.Agg.Runs, pt.Value)
		}
	}
}

func TestAdaptiveRendering(t *testing.T) {
	res, err := RunAdaptiveSweep(context.Background(), AdaptiveSweep{
		Base: fastScenario(), Axis: AxisC,
		Min: 2, Max: 10, Coarse: 4,
		Runs: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var tbl, csv, js bytes.Buffer
	res.WriteTable(&tbl)
	res.WriteCSV(&csv)
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"adaptive sweep fame-clear over c", "skipped points", "threshold:"} {
		if !strings.Contains(tbl.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, tbl.String())
		}
	}
	if !strings.HasPrefix(csv.String(), "value,cell,") {
		t.Fatalf("csv header:\n%s", csv.String())
	}
	if strings.Contains(js.String(), "elapsed") {
		t.Fatalf("timing leaked into JSON:\n%s", js.String())
	}
}
