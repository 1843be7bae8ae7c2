// Command e2e runs one benchmark workload untraced and prints its
// end-to-end metrics as the last line of standard output. Run it
// through perfbench/run.sh, which builds it and the daemon first.
package main

import (
	"fmt"
	"os"

	"bayeslsh/perfbench/bench"
)

func main() {
	cfg, err := bench.ParseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, _, err := bench.Run(cfg, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.Print(os.Stdout, bench.EndToEnd); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep.Failed > 0 {
		os.Exit(1)
	}
}
