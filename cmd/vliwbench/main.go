// Command vliwbench reproduces the paper's high-performance
// evaluation (§10.2, Tables 2–3): 1928 SPEC-like innermost loops
// modulo-scheduled on the 4-unit VLIW, sweeping the differential
// register count over 40..64 with DiffN=32.
//
// Usage:
//
//	vliwbench [-loops N] [-seed N] [-joint] [-json]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"diffra/internal/experiments"
)

func main() {
	cfg, jsonOut, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}

	rep, err := experiments.RunVLIW(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vliwbench:", err)
		os.Exit(1)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "vliwbench:", err)
			os.Exit(1)
		}
		return
	}
	rep.WriteAll(os.Stdout)
}

// parseFlags reads the command line into a run configuration. Errors,
// a negative -restarts included, are reported on stderr with the
// usage text.
func parseFlags(args []string, stderr io.Writer) (cfg experiments.VLIWConfig, jsonOut bool, err error) {
	cfg = experiments.DefaultVLIW()
	fs := flag.NewFlagSet("vliwbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&cfg.Loops, "loops", cfg.Loops, "loop population size")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "population seed")
	fs.IntVar(&cfg.Restarts, "restarts", cfg.Restarts, "kernel remapping restarts")
	fs.IntVar(&cfg.Workers, "workers", cfg.Workers, "concurrent loop compilations (0 = GOMAXPROCS)")
	fs.BoolVar(&cfg.Joint, "joint", false, "also run the combined scheduling x allocation branch-and-bound on optimized loops")
	fs.IntVar(&cfg.JointMaxNodes, "joint-maxnodes", 0, "per-loop joint search budget (0 = default)")
	fs.BoolVar(&jsonOut, "json", false, "emit the full report as JSON instead of tables")
	if err := fs.Parse(args); err != nil {
		return cfg, false, err
	}
	if cfg.Restarts < 0 {
		err := fmt.Errorf("-restarts must be >= 0, got %d", cfg.Restarts)
		fmt.Fprintln(stderr, "vliwbench:", err)
		fs.Usage()
		return cfg, false, err
	}
	return cfg, jsonOut, nil
}
