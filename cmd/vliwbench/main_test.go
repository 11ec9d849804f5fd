package main

import (
	"strconv"
	"strings"
	"testing"
)

func TestNegativeRestartsIsUsageError(t *testing.T) {
	var stderr strings.Builder
	if _, _, err := parseFlags([]string{"-restarts", "-1"}, &stderr); err == nil {
		t.Fatal("-restarts -1 accepted")
	}
	if out := stderr.String(); !strings.Contains(out, "-restarts must be >= 0") || !strings.Contains(out, "Usage of vliwbench") {
		t.Errorf("stderr lacks the error and usage text:\n%s", out)
	}
}

func TestRestartsFlagParses(t *testing.T) {
	for _, want := range []int{0, 20} {
		var stderr strings.Builder
		cfg, jsonOut, err := parseFlags([]string{"-restarts", strconv.Itoa(want), "-json"}, &stderr)
		if err != nil {
			t.Fatalf("-restarts %d: %v", want, err)
		}
		if cfg.Restarts != want || !jsonOut {
			t.Errorf("-restarts %d -json: Restarts=%d json=%v", want, cfg.Restarts, jsonOut)
		}
	}
}
