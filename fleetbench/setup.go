package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// A run times at least setupRepeats cold set-ups, and more, up to
// setupMaxRepeats, until the set-ups alone have taken setupBudget, so that
// a set-up of a few milliseconds is timed often enough for a steady
// median. setup_s is the median of their totals, each divided by the
// host's slowdown around it.
const (
	setupRepeats    = 7
	setupMaxRepeats = 21
	setupBudget     = time.Second
)

// setupChildEnv, set to "<workload> <seed>", makes the process time one
// cold set-up of that workload, print it as JSON and exit. Each set-up runs
// in a fresh process so that process-wide caches (overlap tables, tile
// stores) are built every time, as they are when a server starts.
const setupChildEnv = "FLEETBENCH_SETUP_CHILD"

// setupOnce sets a workload's system up once and returns its timings and
// the function that stops it.
func setupOnce(workload string, seed int64) (setupTimes, func(), error) {
	switch workload {
	case "fleet-handshake", "fleet-bulk":
		f, st, err := startFleet("bench", benchChunks, nil)
		if err != nil {
			return st, nil, err
		}
		return st, f.stop, nil
	case "fleet-play":
		f, st, err := startFleet("play", playChunks, playFronts(seed))
		if err != nil {
			return st, nil, err
		}
		return st, f.stop, nil
	case "popsim-sweep":
		_, st, err := startSweep(seed)
		return st, func() {}, err
	}
	return setupTimes{}, nil, fmt.Errorf("unknown workload %q", workload)
}

// runSetupChild is the child side: one cold set-up, reported on stdout.
func runSetupChild(spec string) error {
	workload, seedText, ok := strings.Cut(spec, " ")
	seed, err := strconv.ParseInt(seedText, 10, 64)
	if !ok || err != nil {
		return fmt.Errorf("bad %s value %q", setupChildEnv, spec)
	}
	st, stop, err := setupOnce(workload, seed)
	if err != nil {
		return err
	}
	stop()
	return json.NewEncoder(os.Stdout).Encode(st)
}

// coldSetups times cold set-ups, one child process each, run one after
// another, and returns the median of every stage.
func coldSetups(cfg config) (setupTimes, error) {
	exe, err := os.Executable()
	if err != nil {
		return setupTimes{}, err
	}
	var all []setupTimes
	ref := hostRef{threads: 1}
	ref.sample()
	start := time.Now()
	for i := 0; i < setupMaxRepeats && (i < setupRepeats || time.Since(start)-ref.spent < setupBudget); i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s %d", setupChildEnv, cfg.workload, cfg.seed))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return setupTimes{}, fmt.Errorf("set-up child: %w", err)
		}
		var st setupTimes
		if err := json.Unmarshal(out, &st); err != nil {
			return setupTimes{}, fmt.Errorf("set-up child output %q: %w", out, err)
		}
		all = append(all, st)
		ref.sample()
	}
	med := func(get func(setupTimes) time.Duration) time.Duration {
		xs := make([]float64, len(all))
		for i, s := range all {
			xs[i] = float64(get(s))
		}
		return time.Duration(quantile(xs, 0.5))
	}
	var scaled []float64
	for i, s := range all {
		slow, _ := ref.between(i)
		scaled = append(scaled, float64(s.Total)/slow)
	}
	return setupTimes{
		Total:       time.Duration(quantile(scaled, 0.5)),
		Generate:    med(func(s setupTimes) time.Duration { return s.Generate }),
		StoreBuild:  med(func(s setupTimes) time.Duration { return s.StoreBuild }),
		FirstHealth: med(func(s setupTimes) time.Duration { return s.FirstHealth }),
	}, nil
}
