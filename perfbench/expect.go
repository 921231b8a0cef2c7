package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"dise"
	"dise/internal/artifacts"
)

// expectedFile holds the recorded outputs the workloads check every op
// against, relative to the repository root. Regenerate with -record.
const expectedFile = "perfbench/expected.json"

// outcome is what the benchmark checks of one analysis: the path count, a
// digest of the sorted path conditions, the affected lines, and (one-shot
// requests only) the number of generated tests.
type outcome struct {
	Paths        int    `json:"paths"`
	PCDigest     string `json:"pc_digest"`
	ACNLines     []int  `json:"acn_lines"`
	AWNLines     []int  `json:"awn_lines"`
	ChangedNodes int    `json:"changed_nodes"`
	Tests        int    `json:"tests,omitempty"`
}

func (o outcome) equal(p outcome) bool {
	return o.Paths == p.Paths && o.PCDigest == p.PCDigest && slices.Equal(o.ACNLines, p.ACNLines) &&
		slices.Equal(o.AWNLines, p.AWNLines) && o.ChangedNodes == p.ChangedNodes && o.Tests == p.Tests
}

func (o outcome) String() string {
	return fmt.Sprintf("%d paths (%s), acn %v, awn %v, %d changed, %d tests",
		o.Paths, o.PCDigest, o.ACNLines, o.AWNLines, o.ChangedNodes, o.Tests)
}

// pcDigest hashes the sorted path conditions, so exploration order does not
// matter but every condition does.
func pcDigest(pcs []string) string {
	s := append([]string(nil), pcs...)
	sort.Strings(s)
	h := sha256.Sum256([]byte(strings.Join(s, "\n")))
	return hex.EncodeToString(h[:8])
}

func outcomeOf(res *dise.Result, tests int) outcome {
	return outcome{
		Paths:        len(res.Paths),
		PCDigest:     pcDigest(res.PathConditions()),
		ACNLines:     nonNil(res.AffectedConditionalLines),
		AWNLines:     nonNil(res.AffectedWriteLines),
		ChangedNodes: res.ChangedNodes,
		Tests:        tests,
	}
}

func nonNil(s []int) []int {
	if s == nil {
		return []int{}
	}
	return s
}

// expected is the checked-in output table: the 40 one-shot pairs and the 40
// chain steps, keyed "ASW/v3" and "ASW/v2>v3".
type expected struct {
	Oneshot map[string]outcome `json:"oneshot"`
	Chain   map[string]outcome `json:"chain"`
}

func loadExpected(root string) (*expected, error) {
	data, err := os.ReadFile(filepath.Join(root, expectedFile))
	if err != nil {
		return nil, fmt.Errorf("expected outputs: %w", err)
	}
	var e expected
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("expected outputs %s: %w", expectedFile, err)
	}
	if len(e.Oneshot) != 40 || len(e.Chain) != 40 {
		return nil, fmt.Errorf("expected outputs %s: %d one-shot and %d chain entries, want 40 each",
			expectedFile, len(e.Oneshot), len(e.Chain))
	}
	return &e, nil
}

// pair is one one-shot request of the artifact workload.
type pair struct {
	key, proc, base, mod string
}

// chain is one artifact's version chain: the base, then v1..vN.
type chain struct {
	name, proc string
	names      []string // "base", "v1", ...
	versions   []string
}

func (c chain) stepKey(i int) string { return c.name + "/" + c.names[i-1] + ">" + c.names[i] }

// artifactPairs returns every (base, vN) pair of ASW, WBS and OAE.
func artifactPairs() []pair {
	var out []pair
	for _, a := range artifacts.All() {
		for _, v := range a.Versions {
			out = append(out, pair{key: a.Name + "/" + v.Name, proc: a.Proc, base: a.Base, mod: a.SourceFor(v)})
		}
	}
	return out
}

// roundOrders returns a function that yields a new seeded permutation of n
// items per call, the request order of one round. Reshuffling every round,
// rather than once per run, keeps a run's figures from hanging on one
// order's cache and GC luck.
func roundOrders(seed int64, n int) func() []int {
	rng := rand.New(rand.NewSource(seed))
	return func() []int { return rng.Perm(n) }
}

// catalogOrder yields the catalog order every round: set-up warms up in it,
// so set-up does the same work whatever the seed.
func catalogOrder(n int) func() []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return func() []int { return order }
}

// artifactChains returns the three artifact chains; each chain's versions
// stay in order.
func artifactChains() []chain {
	var out []chain
	for _, a := range artifacts.All() {
		c := chain{name: a.Name, proc: a.Proc, names: []string{"base"}, versions: []string{a.Base}}
		for _, v := range a.Versions {
			c.names = append(c.names, v.Name)
			c.versions = append(c.versions, a.SourceFor(v))
		}
		out = append(out, c)
	}
	return out
}

// paperPins are the DiSE path-condition counts of the paper's Table 2 that
// internal/evaluation's tests pin; recording cross-checks against them.
var paperPins = map[string]int{
	"ASW/v1": 0, "ASW/v2": 0, "ASW/v3": 3, "ASW/v4": 12, "ASW/v5": 1, "ASW/v6": 144, "ASW/v7": 3,
	"ASW/v8": 1, "ASW/v9": 3, "ASW/v10": 2, "ASW/v11": 144, "ASW/v12": 24, "ASW/v13": 48, "ASW/v14": 3,
	"ASW/v15": 144,
	"WBS/v1":  24, "WBS/v2": 24, "WBS/v3": 24, "WBS/v4": 1, "WBS/v5": 24, "WBS/v6": 24, "WBS/v7": 12,
	"WBS/v8": 0, "WBS/v9": 24, "WBS/v10": 24, "WBS/v11": 12, "WBS/v12": 24, "WBS/v13": 24, "WBS/v14": 24,
	"WBS/v15": 24, "WBS/v16": 24,
	"OAE/v1": 2304, "OAE/v2": 1, "OAE/v3": 2304, "OAE/v4": 1, "OAE/v5": 192, "OAE/v6": 6,
	"OAE/v7": 2304, "OAE/v8": 768, "OAE/v9": 2304,
}

// record computes the expected outputs on a fresh Analyzer, cross-checks the
// one-shot path counts against the paper pins and every chain step against
// a cold Analyze of the same pair, and writes the table.
func record(root string) error {
	ctx := context.Background()
	e := expected{Oneshot: map[string]outcome{}, Chain: map[string]outcome{}}
	an := dise.NewAnalyzer()
	for _, p := range artifactPairs() {
		res, err := an.Analyze(ctx, dise.Request{BaseSrc: p.base, ModSrc: p.mod, Proc: p.proc})
		if err != nil {
			return fmt.Errorf("%s: %w", p.key, err)
		}
		tests, err := res.Tests()
		if err != nil {
			return fmt.Errorf("%s tests: %w", p.key, err)
		}
		if want, ok := paperPins[p.key]; !ok || len(res.Paths) != want {
			return fmt.Errorf("%s: %d affected path conditions, paper pin %d", p.key, len(res.Paths), want)
		}
		e.Oneshot[p.key] = outcomeOf(res, len(tests))
	}
	for _, c := range artifactChains() {
		s, err := dise.NewAnalyzer().NewSession(ctx, dise.SessionRequest{InitialSrc: c.versions[0], Proc: c.proc})
		if err != nil {
			return fmt.Errorf("%s session: %w", c.name, err)
		}
		for i := 1; i < len(c.versions); i++ {
			res, err := s.Advance(ctx, c.versions[i])
			if err != nil {
				return fmt.Errorf("%s: %w", c.stepKey(i), err)
			}
			cold, err := dise.NewAnalyzer().Analyze(ctx, dise.Request{BaseSrc: c.versions[i-1], ModSrc: c.versions[i], Proc: c.proc})
			if err != nil {
				return fmt.Errorf("%s cold: %w", c.stepKey(i), err)
			}
			got, want := outcomeOf(res, 0), outcomeOf(cold, 0)
			if !got.equal(want) {
				return fmt.Errorf("%s: session step %v != cold analysis %v", c.stepKey(i), got, want)
			}
			e.Chain[c.stepKey(i)] = got
		}
	}
	data, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, expectedFile), append(data, '\n'), 0o644)
}
