// Command symexec runs full (traditional) symbolic execution of a procedure
// and prints its path conditions — the control technique of the paper's
// evaluation — or, with -tree, the symbolic execution tree of Fig. 1.
// Ctrl-C cancels the exploration mid-search.
//
// Usage:
//
//	symexec -src prog.mini [-proc update] [-tree] [-tests] [-depth N]
//	        [-strategy dfs|bfs|directed] [-explore-parallelism N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"dise"
)

func main() {
	srcPath := flag.String("src", "", "path to the program source")
	proc := flag.String("proc", "", "procedure to execute (default: the only procedure)")
	depth := flag.Int("depth", 0, "depth bound (0 = default)")
	tree := flag.Bool("tree", false, "print the symbolic execution tree instead of the summary")
	tests := flag.Bool("tests", false, "also solve path conditions into test inputs")
	strategy := flag.String("strategy", "", fmt.Sprintf("search strategy %v (default %q)", dise.SearchStrategies(), "dfs"))
	exploreParallelism := flag.Int("explore-parallelism", 0, "exploration workers (0 or 1 = sequential)")
	flag.Parse()

	if *srcPath == "" {
		fmt.Fprintln(os.Stderr, "usage: symexec -src FILE [-proc NAME] [-tree] [-tests] [-depth N] [-strategy NAME] [-explore-parallelism N]")
		os.Exit(2)
	}
	src, err := os.ReadFile(*srcPath)
	exitOn(err)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	procName := *proc
	if procName == "" {
		prog, err := dise.ParseProgram(string(src))
		exitOn(err)
		procs := prog.Procedures()
		if len(procs) != 1 {
			exitOn(fmt.Errorf("-proc required: program has %d procedures %v", len(procs), procs))
		}
		procName = procs[0]
	}
	a := dise.NewAnalyzer(
		dise.WithDepthBound(*depth),
		dise.WithSearchStrategy(*strategy),
		dise.WithExploreParallelism(*exploreParallelism),
	)

	if *tree {
		rendered, err := a.ExecutionTree(ctx, string(src), procName)
		exitOn(err)
		fmt.Print(rendered)
		return
	}

	sum, err := a.Execute(ctx, string(src), procName)
	exitOn(err)
	fmt.Printf("procedure:       %s\n", procName)
	fmt.Printf("search:          %s strategy, %d exploration worker(s)\n",
		sum.Stats.SearchStrategy, sum.Stats.ExploreParallelism)
	fmt.Printf("states explored: %d\n", sum.Stats.StatesExplored)
	if n := sum.Stats.DepthBoundHits; n > 0 {
		fmt.Printf("depth-bound cuts: %d (paths cut at the depth bound)\n", n)
	}
	if sum.Stats.MaxStatesHit {
		fmt.Println("max-states cut:  exploration stopped at the state cap")
	}
	fmt.Printf("solver calls:    %d\n", sum.Stats.SolverCalls)
	fmt.Printf("time:            %dms\n", sum.Stats.TimeMilliseconds)
	fmt.Printf("path conditions: %d\n", len(sum.Paths))
	for i, p := range sum.Paths {
		marker := ""
		if p.AssertViolated {
			marker = "  [ASSERTION VIOLATION]"
		}
		fmt.Printf("  PC%-3d %s%s\n", i+1, p.PathCondition, marker)
	}
	if *tests {
		ts := sum.Tests()
		fmt.Printf("test inputs: %d\n", len(ts))
		for _, tc := range ts {
			fmt.Printf("  %s\n", tc.Call)
		}
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "symexec:", err)
		os.Exit(1)
	}
}
