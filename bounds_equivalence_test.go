package dise

import (
	"context"
	"reflect"
	"testing"

	"dise/internal/artifacts"
)

// TestGenerousBoundsMatchUnbounded pins the conservative-defaults contract
// of the memory bounds: with generous budgets (nothing ever evicted or
// collected), a warm version-chain session behaves byte-identically to an
// unbounded one — not just the answers, the memo reuse itself (replay and
// hit counts), because a bound that never binds must not perturb the warm
// path at all.
func TestGenerousBoundsMatchUnbounded(t *testing.T) {
	ctx := context.Background()
	for _, art := range artifacts.All() {
		art := art
		t.Run(art.Name, func(t *testing.T) {
			t.Parallel()
			unbounded := NewAnalyzer()
			bounded := NewAnalyzer(
				WithMemoNodeBudget(1<<20),
				WithInternGC(1<<10),
				WithCacheByteBudget(64<<20),
			)
			srcs := chainSources(art)
			sessU, err := unbounded.NewSession(ctx, SessionRequest{InitialSrc: srcs[0], Proc: art.Proc})
			if err != nil {
				t.Fatal(err)
			}
			sessB, err := bounded.NewSession(ctx, SessionRequest{InitialSrc: srcs[0], Proc: art.Proc})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(srcs); i++ {
				resU, err := sessU.Advance(ctx, srcs[i])
				if err != nil {
					t.Fatalf("step %d: unbounded Advance: %v", i, err)
				}
				resB, err := sessB.Advance(ctx, srcs[i])
				if err != nil {
					t.Fatalf("step %d: bounded Advance: %v", i, err)
				}
				if got, want := comparable(resB), comparable(resU); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d (%s): generous bounds diverged from unbounded\nbounded:   %+v\nunbounded: %+v",
						i, art.Versions[i-1].Name, got, want)
				}
				mB, mU := resB.Stats.Memo, resU.Stats.Memo
				if mB.MemoStatesReplayed != mU.MemoStatesReplayed || mB.MemoHits != mU.MemoHits {
					t.Fatalf("step %d (%s): generous bounds perturbed the warm path: bounded replayed %d / hit %d, unbounded replayed %d / hit %d",
						i, art.Versions[i-1].Name, mB.MemoStatesReplayed, mB.MemoHits, mU.MemoStatesReplayed, mU.MemoHits)
				}
				if mB.NodesEvicted != 0 {
					t.Fatalf("step %d: generous node budget evicted %d nodes", i, mB.NodesEvicted)
				}
			}
		})
	}
}

// TestTightBoundsMatchColdAnalysis pins the correctness half of eviction:
// with budgets tight enough to evict constantly (an 8-node trie budget,
// intern collection after every run, a 4KiB shared cache ceiling), a warm
// session's answers stay byte-identical to a cold pairwise Analyze on a
// fresh unbounded Analyzer. Eviction may only cost hit rate — an evicted
// subtree means a cold re-solve, never a wrong replay.
func TestTightBoundsMatchColdAnalysis(t *testing.T) {
	ctx := context.Background()
	for _, art := range artifacts.All() {
		art := art
		t.Run(art.Name, func(t *testing.T) {
			t.Parallel()
			warm := NewAnalyzer(
				WithMemoNodeBudget(8),
				WithInternGC(1),
				WithCacheByteBudget(4096),
			)
			cold := NewAnalyzer()
			srcs := chainSources(art)
			sess, err := warm.NewSession(ctx, SessionRequest{InitialSrc: srcs[0], Proc: art.Proc})
			if err != nil {
				t.Fatal(err)
			}
			evicted := 0
			for i := 1; i < len(srcs); i++ {
				warmRes, err := sess.Advance(ctx, srcs[i])
				if err != nil {
					t.Fatalf("step %d: bounded Advance: %v", i, err)
				}
				coldRes, err := cold.Analyze(ctx, Request{BaseSrc: srcs[i-1], ModSrc: srcs[i], Proc: art.Proc})
				if err != nil {
					t.Fatalf("step %d: cold Analyze: %v", i, err)
				}
				if got, want := comparable(warmRes), comparable(coldRes); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d (%s): tightly bounded session diverged from cold analysis\nbounded: %+v\ncold:    %+v",
						i, art.Versions[i-1].Name, got, want)
				}
				evicted += warmRes.Stats.Memo.NodesEvicted
				if n := warmRes.Stats.Memo.TrieNodes; n > 8 {
					t.Fatalf("step %d: trie holds %d nodes past the 8-node budget", i, n)
				}
			}
			// The bounds must actually have been binding, or this test proves
			// nothing about eviction.
			if evicted == 0 {
				t.Fatalf("8-node budget never evicted over %d steps", len(srcs)-1)
			}
		})
	}
}
