package main

import (
	"testing"

	"dcsctrl/internal/trace"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2},
	} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %g, want 0", got)
	}
}

// The sample-count rule: a p99 counts as measured only when at least
// ten samples lie beyond it, which takes a thousand samples.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		beyond int
		ok     bool
	}{
		{0, 0, false}, {1, 0, false}, {100, 1, false}, {999, 9, false},
		{1000, 10, true}, {1100, 11, true}, {4032, 40, true},
	} {
		if b := beyond(c.n, 99); b != c.beyond {
			t.Errorf("beyond(%d, 99) = %d, want %d", c.n, b, c.beyond)
		}
		if ok := tailMeasured(c.n, 99); ok != c.ok {
			t.Errorf("tailMeasured(%d, 99) = %v, want %v", c.n, ok, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	vals := []float64{3, 1, 2}
	if m := median(vals); m != 2 {
		t.Errorf("odd median %g, want 2", m)
	}
	if vals[0] != 3 {
		t.Error("median reordered its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %g, want 2.5", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median %g, want 0", m)
	}
}

// sampleValues must recover every observation of a trace.Sample,
// duplicates included, through its percentile accessor alone.
func TestSampleValuesRecoversObservations(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 1000, 1337} {
		var s trace.Sample
		want := make([]float64, n)
		for i := range want {
			want[i] = float64((i * 7919) % (n/2 + 1)) // unordered, with duplicates
		}
		for i := len(want) - 1; i >= 0; i-- {
			s.Add(want[i])
		}
		got := sampleValues(&s)
		sorted := append([]float64(nil), want...)
		percentile(sorted, 50) // sorts in place
		if len(got) != n {
			t.Fatalf("n=%d: got %d values", n, len(got))
		}
		for i := range got {
			if got[i] != sorted[i] {
				t.Fatalf("n=%d: value %d = %g, want %g", n, i, got[i], sorted[i])
			}
		}
	}
}

// A repeat whose fingerprint differs from its batch's first run fails
// every operation it ran.
func TestSummarizeCountsDivergentRepeat(t *testing.T) {
	reps := []repOut{
		{Batch: 0, Fingerprint: "a", Ops: 10, Attempted: 10, MeasuredS: 1},
		{Batch: 1, Fingerprint: "b", Ops: 10, Attempted: 10, MeasuredS: 2},
		{Batch: 0, Fingerprint: "a", Ops: 10, Attempted: 10, MeasuredS: 4},
		{Batch: 1, Fingerprint: "x", Ops: 10, Attempted: 10, MeasuredS: 1},
	}
	s := summarize(reps, 2)
	if s.failed != 10 || s.attempted != 40 || len(s.problems) != 1 {
		t.Fatalf("failed %d of %d with problems %q; want 10 of 40 and one problem", s.failed, s.attempted, s.problems)
	}
	if len(s.first) != 2 || s.first[1].Fingerprint != "b" {
		t.Fatalf("first runs %+v", s.first)
	}
	if v := s.endToEndValues()["ops_per_s"]; v != 7.5 {
		t.Errorf("ops_per_s median %g, want 7.5", v)
	}
	if v := s.endToEndValues()["success_rate"]; v != 0.75 {
		t.Errorf("success_rate %g, want 0.75", v)
	}
	if s := summarize(reps[:1], 2); len(s.problems) != 1 {
		t.Errorf("a missing batch is not reported: %q", s.problems)
	}
}
