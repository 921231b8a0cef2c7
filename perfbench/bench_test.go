package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPercentileNearestRankAndSampleRule(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		s = append(s, float64(i))
	}
	for _, c := range []struct {
		p            float64
		value        float64
		beyond       int
		wantErr      bool
		samplesCount int
	}{
		{p: 0.5, value: 50, beyond: 50},
		{p: 0.9, value: 90, beyond: 10},
		{p: 0.91, value: 91, beyond: 9, wantErr: true},
		{p: 0.99, value: 99, beyond: 1, wantErr: true},
	} {
		got, err := percentile(s, c.p)
		if (err != nil) != c.wantErr {
			t.Errorf("p%g: err = %v, want error %v", c.p*100, err, c.wantErr)
		}
		if got.Value != c.value || got.Beyond != c.beyond || got.Samples != 100 {
			t.Errorf("p%g = %+v, want value %g with %d beyond of 100", c.p*100, got, c.value, c.beyond)
		}
	}
	// A p99 needs 1000 samples: 999 leave only 9 beyond it.
	for _, n := range []int{999, 1000} {
		s := make([]float64, n)
		_, err := percentile(s, 0.99)
		if (err != nil) != (n < 1000) {
			t.Errorf("p99 of %d samples: err = %v", n, err)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples succeeded")
	}
}

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 3, Parent: 1, Name: "c", Start: 12, End: 15},  // nested in a
		{ID: 4, Parent: 0, Name: "d", Start: 90, End: 120}, // sticks out of op
		{ID: 5, Parent: -1, Name: "other", Start: 0, End: 7},
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 100 - 40 - 10, 1: 17, 2: 30, 3: 3, 4: 30, 5: 7}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%s) = %d, want %d", spans[id].Name, self[id], w)
		}
	}
	lt := summarizeSpans(spans, "op")
	if lt.roots != 1 || lt.rootTotal != 100 || lt.self["a"] != 17 || lt.count["other"] != 0 {
		t.Errorf("summary = %+v", lt)
	}
	// Without overlap or overhang the self times account for the root.
	exact := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "a", Start: 1, End: 4},
		{ID: 2, Parent: 1, Name: "b", Start: 2, End: 3},
		{ID: 3, Parent: 0, Name: "c", Start: 5, End: 9},
	}
	var sum int64
	for _, v := range selfTimes(exact) {
		sum += v
	}
	if sum != 10 {
		t.Errorf("self times sum to %d, want the root's 10", sum)
	}
}

// A wrong expected entry must fail the run: the one-shot workload counts
// the mismatch in failed and reports it.
func TestWrongExpectedEntryFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the one-shot workload")
	}
	data, err := os.ReadFile(filepath.Join("..", expectedFile))
	if err != nil {
		t.Fatal(err)
	}
	var e expected
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	bad := e.Oneshot["WBS/v4"]
	bad.Paths++
	e.Oneshot["WBS/v4"] = bad
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, expectedFile), out, 0o644); err != nil {
		t.Fatal(err)
	}
	rep := &report{Metrics: map[string]metric{}, Layers: map[string]metric{}, Extra: map[string]any{}}
	if err := runOneshot(runConfig{root: root, seed: 1, seconds: 2}, rep); err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 || len(rep.Mismatches) == 0 || !strings.Contains(rep.Mismatches[0], "WBS/v4") {
		t.Fatalf("failed = %d, mismatches %q; want the WBS/v4 entry to fail", rep.Failed, rep.Mismatches)
	}
	if rep.Attempted <= rep.Failed {
		t.Errorf("attempted %d, failed %d: only WBS/v4 should fail", rep.Attempted, rep.Failed)
	}
}
