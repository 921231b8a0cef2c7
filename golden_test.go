package dise_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dise"
	"dise/internal/artifacts"
)

var update = flag.Bool("update", false, "rewrite testdata golden files from the current code")

// goldenPair is what one (base, vN) artifact analysis pins beyond the
// path-condition figures: the concrete test inputs (a digest of the rendered
// calls, in order), the pruner's counters and the solver work.
type goldenPair struct {
	Key             string `json:"key"`
	Tests           int    `json:"tests"`
	TestInputs      string `json:"test_inputs_sha256"`
	PrunedStates    int    `json:"pruned_states"`
	Resets          int    `json:"resets"`
	UnaffectedPaths int    `json:"unaffected_paths"`
	SolverChecks    int    `json:"solver_checks"`
	FullSolves      int    `json:"full_solves"`
}

// TestGoldenArtifactPairs runs Analyze and Tests on every (base, vN) pair of
// the ASW, WBS and OAE artifacts, in catalog order on one Analyzer, and
// compares the outcome with testdata/artifact_pairs.golden.json. The model
// values behind each test input are the solver's choice, so a change to the
// solver's search or to the box it starts from shows up here even when every
// path condition stays the same. Run with -update to rewrite the file.
func TestGoldenArtifactPairs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every artifact pair")
	}
	ctx := context.Background()
	an := dise.NewAnalyzer()
	var got []goldenPair
	for _, a := range artifacts.All() {
		for _, v := range a.Versions {
			key := a.Name + "/" + v.Name
			res, err := an.Analyze(ctx, dise.Request{BaseSrc: a.Base, ModSrc: a.SourceFor(v), Proc: a.Proc})
			if err != nil {
				t.Fatalf("%s: Analyze: %v", key, err)
			}
			tests, err := res.Tests()
			if err != nil {
				t.Fatalf("%s: Tests: %v", key, err)
			}
			h := sha256.New()
			for _, tc := range tests {
				h.Write([]byte(tc.Call))
				h.Write([]byte{'\n'})
			}
			got = append(got, goldenPair{
				Key:             key,
				Tests:           len(tests),
				TestInputs:      hex.EncodeToString(h.Sum(nil)),
				PrunedStates:    res.Stats.PrunedStates,
				Resets:          res.Stats.Resets,
				UnaffectedPaths: res.Stats.UnaffectedPaths,
				SolverChecks:    res.Stats.Solver.Checks,
				FullSolves:      res.Stats.Solver.FullSolves,
			})
		}
	}
	path := filepath.Join("testdata", "artifact_pairs.golden.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want []goldenPair
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d artifact pairs, golden file has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s:\n got  %+v\n want %+v", want[i].Key, got[i], want[i])
		}
	}
}
