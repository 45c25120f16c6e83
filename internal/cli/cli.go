// Package cli holds the small contract every codetomo command shares:
// the exit-code convention (0 success, 1 runtime failure, 2 usage error),
// the usage-error reporter that names the offending flag, and the
// validation and flag-resolution helpers that used to be copied per CLI.
package cli

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"codetomo/internal/tomography"
)

// The exit-code contract shared by ctomo, ctfleet, and ctstationd.
const (
	ExitOK      = 0 // run completed
	ExitFailure = 1 // runtime failure (I/O, pipeline, server)
	ExitUsage   = 2 // flag-validation failure; stderr names the flag
)

// UsageFunc reports one flag-validation failure and returns ExitUsage for
// main to hand to os.Exit. The format string must name the offending flag
// (e.g. "invalid -drop: ..."), so a misconfigured run fails loudly and
// actionably instead of running with silently-clamped parameters.
type UsageFunc func(format string, args ...any) int

// Usage builds the shared usage-error reporter for one command: it prints
// "<cmd>: <msg>", the usage line, and the flag defaults to stderr.
func Usage(fs *flag.FlagSet, stderr io.Writer, cmd, argsHint string) UsageFunc {
	return func(format string, args ...any) int {
		fmt.Fprintf(stderr, "%s: %s\n", cmd, fmt.Sprintf(format, args...))
		fmt.Fprintf(stderr, "usage: %s %s\n", cmd, argsHint)
		fs.PrintDefaults()
		return ExitUsage
	}
}

// ProbFlag is one probability-valued flag under validation.
type ProbFlag struct {
	Name string
	Val  float64
}

// BadProbability returns the first flag whose value is not a probability
// in [0, 1], if any.
func BadProbability(flags ...ProbFlag) (ProbFlag, bool) {
	for _, f := range flags {
		if f.Val < 0 || f.Val > 1 {
			return f, true
		}
	}
	return ProbFlag{}, false
}

// PGOPasses holds the selection parsed from a -pgo flag.
type PGOPasses struct {
	Inline   bool
	PagePack bool
}

// ParsePGOPasses resolves the -pgo flag the pipeline CLIs share: a
// comma-separated subset of {inline, pagepack}, the
// shorthand "all", or "" / "none" for placement-only.
func ParsePGOPasses(spec string) (PGOPasses, error) {
	var p PGOPasses
	if spec == "" || spec == "none" {
		return p, nil
	}
	for _, tok := range strings.Split(spec, ",") {
		switch strings.TrimSpace(tok) {
		case "inline":
			p.Inline = true
		case "pagepack":
			p.PagePack = true
		case "all":
			p = PGOPasses{Inline: true, PagePack: true}
		default:
			return PGOPasses{}, fmt.Errorf("%q (want a comma-separated subset of inline,pagepack, or all/none)", tok)
		}
	}
	return p, nil
}

// Estimator resolves the -estimator flag every pipeline CLI exposes. The
// EM default returns nil: the pipeline tunes its kernel to the timer tick
// internally, so callers must leave the config's Estimator unset for it.
func Estimator(name string, tick int) (tomography.Estimator, error) {
	switch name {
	case "em":
		return nil, nil
	case "moments":
		return tomography.Moments{}, nil
	case "histogram":
		return tomography.Histogram{Config: tomography.HistogramConfig{KernelHalfWidth: float64(tick)}}, nil
	default:
		return nil, fmt.Errorf("%q (want em, moments, or histogram)", name)
	}
}
