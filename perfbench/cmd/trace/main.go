// Command trace runs one benchmark workload, then replays the start of
// its operation stream with spans around every layer call, and prints
// the per-layer metrics as the last line of standard output. Run it
// through perfbench/run.sh with --trace 1.
package main

import (
	"fmt"
	"os"

	"bayeslsh/perfbench/bench"
	"bayeslsh/perfbench/layers"
)

func main() {
	cfg, err := bench.ParseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, _, err := bench.Run(cfg, func(st *bench.State, rep *bench.Report) error {
		return layers.Replay(cfg, st, rep)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.Print(os.Stdout, layers.Names()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep.Failed > 0 {
		os.Exit(1)
	}
}
