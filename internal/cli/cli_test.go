package cli

import (
	"bytes"
	"flag"
	"strconv"
	"strings"
	"testing"
)

func TestUsageNamesFlagAndPrintsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("demo", flag.ContinueOnError)
	fs.Int("motes", 4, "deployment size")
	var stderr bytes.Buffer
	usage := Usage(fs, &stderr, "demo", "[flags] file.mc")

	if code := usage("invalid -motes: %d", 0); code != ExitUsage {
		t.Fatalf("usage returned %d, want %d", code, ExitUsage)
	}
	out := stderr.String()
	for _, want := range []string{"demo: invalid -motes: 0", "usage: demo [flags] file.mc", "-motes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stderr missing %q:\n%s", want, out)
		}
	}
}

func TestBadProbability(t *testing.T) {
	if f, bad := BadProbability(ProbFlag{"-drop", 0}, ProbFlag{"-dup", 1}); bad {
		t.Fatalf("in-range values flagged: %+v", f)
	}
	f, bad := BadProbability(ProbFlag{"-drop", 0.5}, ProbFlag{"-corrupt", 1.5})
	if !bad || f.Name != "-corrupt" {
		t.Fatalf("got %+v bad=%v, want -corrupt flagged", f, bad)
	}
	f, bad = BadProbability(ProbFlag{"-stuck", -0.1})
	if !bad || f.Name != "-stuck" {
		t.Fatalf("got %+v bad=%v, want -stuck flagged", f, bad)
	}
}

func TestParsePGOPasses(t *testing.T) {
	cases := []struct {
		spec string
		want PGOPasses
		// bad, when set, is the token the usage error must name.
		bad string
	}{
		{spec: "", want: PGOPasses{}},
		{spec: "none", want: PGOPasses{}},
		{spec: "inline", want: PGOPasses{Inline: true}},
		{spec: "pagepack, inline", want: PGOPasses{Inline: true, PagePack: true}},
		{spec: "all", want: PGOPasses{Inline: true, PagePack: true}},
		{spec: "inline,unroll", bad: "unroll"},
		{spec: "superblock", bad: "superblock"},
		{spec: "inline,hotcold", bad: "hotcold"},
	}
	for _, tc := range cases {
		got, err := ParsePGOPasses(tc.spec)
		if tc.bad != "" {
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(tc.bad)) {
				t.Fatalf("ParsePGOPasses(%q) error = %v, want it to name %q", tc.spec, err, tc.bad)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Fatalf("ParsePGOPasses(%q) = (%+v, %v), want %+v", tc.spec, got, err, tc.want)
		}
	}
}

func TestEstimatorResolution(t *testing.T) {
	if est, err := Estimator("em", 8); err != nil || est != nil {
		t.Fatalf("em: got (%v, %v), want (nil, nil) — the pipeline supplies the tuned default", est, err)
	}
	for _, name := range []string{"moments", "histogram"} {
		est, err := Estimator(name, 8)
		if err != nil || est == nil || est.Name() != name {
			t.Fatalf("%s: got (%v, %v)", name, est, err)
		}
	}
	if _, err := Estimator("psychic", 8); err == nil || !strings.Contains(err.Error(), "psychic") {
		t.Fatalf("unknown estimator error = %v, want it to name the value", err)
	}
}
