package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// exactCounters are the per-layer metrics that repeat exactly across runs
// of one seed (checked by running the traced run twice): later changes may
// claim a difference in them as a count.
var exactCounters = []string{
	"cfg.nodes", "diff.changed_nodes", "dise.affected_nodes", "dise.paths",
	"dise.pruned_states", "dise.unaffected_paths", "dise.useful_path_ratio",
	"lang.parse_calls", "memo.hits", "memo.replayed_share", "memo.trie_bytes", "memo.trie_nodes",
	"symexec.infeasible", "symexec.states", "constraint.checks", "constraint.unknown", "testgen.tests",
}

// legacyRows maps each workload to the hand-copied BENCH_*.json rows it
// supersedes. Not measured here: the BENCH_search.json and BENCH_merge.json
// parallel/merge rows — parallel speedups cannot be claimed on a 2-core
// host, and state merging is off by default — and the BENCH_service.json and
// BENCH_memory.json rows, which need a workload of generated programs whose
// throughput repeats across seeds.
var legacyRows = map[string][]string{
	"oneshot-artifacts": {
		"BENCH_hotpath.json: BenchmarkSolverBackendsOAE/Incremental",
		"BENCH_solver.json: results[*].incremental_ns_per_op (OAE, ASW, WBS)",
	},
	"chain-artifacts": {
		"BENCH_incremental.json: results_ns_per_op.*.warm_with_seed and warm_steps_only",
	},
}

// provenance identifies the host and the code a run measured.
type provenance struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git commit when the checkout is a repository; Source is
	// a digest of every .go, go.mod and expected-output file, which
	// identifies the code either way.
	Commit  string   `json:"commit"`
	Source  string   `json:"source_sha256"`
	Seed    int64    `json:"seed"`
	Command []string `json:"command"`
}

func provenanceOf(cfg runConfig) provenance {
	commit := "unknown"
	if abs, err := filepath.Abs(cfg.root); err == nil {
		cmd := exec.Command("git", "-C", abs, "rev-parse", "HEAD")
		// Look for a repository at the root only, never above it.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
		if out, err := cmd.Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return provenance{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Source:     sourceDigest(cfg.root),
		Seed:       cfg.seed,
		Command:    command(),
	}
}

// sourceDigest hashes the module's sources in path order, skipping build
// output and hidden directories.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" && !strings.HasSuffix(p, expectedFile) {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// command is the command line the run was started with: the one run.sh
// passes in PERFBENCH_COMMAND, else the binary's own arguments.
func command() []string {
	if c := os.Getenv("PERFBENCH_COMMAND"); c != "" {
		return strings.Fields(c)
	}
	return os.Args
}
