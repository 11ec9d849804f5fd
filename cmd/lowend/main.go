// Command lowend reproduces the paper's low-end evaluation (§10.1,
// Figures 11–14): the Mibench-like kernel suite compiled under all
// five schemes, statically measured and simulated on the THUMB-like
// 5-stage pipeline.
//
// Usage:
//
//	lowend [-restarts N] [-regn N] [-diffn N] [-json]
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

	rep, err := experiments.RunLowEnd(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lowend:", err)
		os.Exit(1)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "lowend:", err)
			os.Exit(1)
		}
		return
	}
	rep.WriteAll(os.Stdout)
}

// parseFlags reads the command line into a run configuration. Errors,
// a negative -restarts included, are reported on stderr with the
// usage text.
func parseFlags(args []string, stderr io.Writer) (cfg experiments.LowEndConfig, jsonOut bool, err error) {
	cfg = experiments.DefaultLowEnd()
	fs := flag.NewFlagSet("lowend", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&cfg.Restarts, "restarts", cfg.Restarts, "remapping restart count")
	fs.IntVar(&cfg.RegN, "regn", cfg.RegN, "differential register count")
	fs.IntVar(&cfg.DiffN, "diffn", cfg.DiffN, "encodable difference count")
	fs.IntVar(&cfg.Workers, "workers", cfg.Workers, "concurrent kernel×scheme compilations (0 = GOMAXPROCS)")
	fs.BoolVar(&jsonOut, "json", false, "emit the full report as JSON instead of figures")
	if err := fs.Parse(args); err != nil {
		return cfg, false, err
	}
	if cfg.Restarts < 0 {
		err := fmt.Errorf("-restarts must be >= 0, got %d", cfg.Restarts)
		fmt.Fprintln(stderr, "lowend:", err)
		fs.Usage()
		return cfg, false, err
	}
	return cfg, jsonOut, nil
}
