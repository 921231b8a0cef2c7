package dise

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	idise "dise/internal/dise"
	"dise/internal/symexec"
)

// TestStatsAdd pins the aggregation semantics of the facade stats hooks:
// counters sum, the backend/strategy echoes keep the first sample, the memo
// block counts enabled steps and tracks the largest trie.
func TestStatsAdd(t *testing.T) {
	var agg Stats
	agg.Add(Stats{
		CoreStats:      symexec.CoreStats{StatesExplored: 10, InfeasibleBranches: 2, DepthBoundHits: 4, ModelHits: 3},
		RunStats:       symexec.RunStats{PathsExplored: 3},
		PathConditions: 3, TimeMilliseconds: 5, SolverCalls: 7,
		SearchStrategy: "dfs", ExploreParallelism: 1,
		PruneStats: idise.PruneStats{PrunedStates: 6, UnaffectedPaths: 1, Resets: 2},
		Solver:     SolverStats{Backend: "interval", Checks: 7, Sat: 5, Unsat: 2, CacheHits: 1, SearchNodes: 40},
		Memo: MemoStats{Enabled: true, Step: 4, TrieNodes: 50,
			MemoStats: symexec.MemoStats{MemoHits: 6, MemoStatesReplayed: 8}},
	})
	agg.Add(Stats{
		CoreStats:      symexec.CoreStats{StatesExplored: 5, InfeasibleBranches: 1, DepthBoundHits: 1},
		RunStats:       symexec.RunStats{PathsExplored: 1, MaxStatesHit: true},
		PathConditions: 1, TimeMilliseconds: 2, SolverCalls: 3,
		SearchStrategy: "bfs", ExploreParallelism: 4,
		PruneStats: idise.PruneStats{PrunedStates: 1},
		Solver:     SolverStats{Backend: "bitvec", Checks: 3, Sat: 3, ModelReuses: 2, SearchNodes: 2, CheckPanics: 1},
		Memo: MemoStats{Enabled: true, Step: 9, TrieNodes: 40,
			MemoStats: symexec.MemoStats{MemoHits: 1, MemoStatesLive: 4}},
	})
	agg.Add(Stats{CoreStats: symexec.CoreStats{StatesExplored: 1}}) // cold analyze: memo disabled

	want := Stats{
		CoreStats:      symexec.CoreStats{StatesExplored: 16, InfeasibleBranches: 3, DepthBoundHits: 5, ModelHits: 3},
		RunStats:       symexec.RunStats{PathsExplored: 4, MaxStatesHit: true},
		PathConditions: 4, TimeMilliseconds: 7, SolverCalls: 10,
		SearchStrategy: "dfs", ExploreParallelism: 1,
		PruneStats: idise.PruneStats{PrunedStates: 7, UnaffectedPaths: 1, Resets: 2},
		Solver: SolverStats{Backend: "interval", Checks: 10, Sat: 8, Unsat: 2, CacheHits: 1, ModelReuses: 2,
			SearchNodes: 42, CheckPanics: 1},
		Memo: MemoStats{
			Enabled: true, Step: 2, TrieNodes: 50,
			MemoStats: symexec.MemoStats{MemoHits: 7, MemoStatesReplayed: 8, MemoStatesLive: 4},
		},
	}
	if !reflect.DeepEqual(agg, want) {
		t.Fatalf("aggregate mismatch:\ngot  %+v\nwant %+v", agg, want)
	}
}

// TestMergeStatsAdd pins the merge-block aggregation: Enabled is a
// disjunction, Bound keeps the first enabled sample, the counters sum.
func TestMergeStatsAdd(t *testing.T) {
	var agg MergeStats
	agg.Add(MergeStats{Merges: 0}) // unmerged run contributes nothing
	agg.Add(MergeStats{Enabled: true, Bound: 8, Merges: 3, MergedStatesSaved: 5, IteNodes: 12})
	agg.Add(MergeStats{Enabled: true, Bound: 2, Merges: 1, MergedStatesSaved: 1, IteNodes: 4})
	want := MergeStats{Enabled: true, Bound: 8, Merges: 4, MergedStatesSaved: 6, IteNodes: 16}
	if agg != want {
		t.Fatalf("aggregate mismatch:\ngot  %+v\nwant %+v", agg, want)
	}
}

// TestStatsMarshalOmitsZeroBlocks pins the uniform omission rule of the
// Stats JSON shape: the solver/memo/merge sub-blocks disappear when they
// equal their zero values and appear — under their fixed keys — when they
// carry data. A cold run's JSON must not serialize trees of zeros for
// machinery it never engaged.
func TestStatsMarshalOmitsZeroBlocks(t *testing.T) {
	bare, err := json.Marshal(Stats{CoreStats: symexec.CoreStats{StatesExplored: 3}, SearchStrategy: "dfs"})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"solver_stats", "memo_stats", "merge_stats"} {
		if strings.Contains(string(bare), key) {
			t.Errorf("zero %s block not omitted: %s", key, bare)
		}
	}
	if !strings.Contains(string(bare), `"states_explored":3`) {
		t.Errorf("core counters missing: %s", bare)
	}

	full, err := json.Marshal(Stats{
		Solver: SolverStats{Backend: "interval", Checks: 1},
		Memo:   MemoStats{Enabled: true, Step: 1},
		Merge:  MergeStats{Enabled: true, Bound: MergeUnbounded, Merges: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"solver_stats":{`, `"memo_stats":{`, `"merge_stats":{`,
		`"backend":"interval"`, `"merged_states_saved":0`, `"bound":-1`,
	} {
		if !strings.Contains(string(full), want) {
			t.Errorf("marshaled stats missing %s: %s", want, full)
		}
	}
	// The override fields must shadow, not duplicate, the embedded ones.
	if n := strings.Count(string(full), `"merge_stats"`); n != 1 {
		t.Errorf("merge_stats appears %d times, want 1: %s", n, full)
	}

	// Round trip: the custom marshaler must stay decodable into Stats.
	var back Stats
	if err := json.Unmarshal(full, &back); err != nil {
		t.Fatal(err)
	}
	if back.Merge.Merges != 2 || back.Memo.Step != 1 || back.Solver.Checks != 1 {
		t.Errorf("round trip lost sub-block data: %+v", back)
	}
}
