package lint

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

const examplesDir = "../../examples/minic"

// TestGoldenExamples lints every example program and compares the full
// diagnostic listing against a checked-in golden file. Run with -update
// after intentionally changing an example or a diagnostic message.
func TestGoldenExamples(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(examplesDir, "*.mc"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, path := range files {
		base := filepath.Base(path)
		t.Run(base, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Lint under the base name so goldens are path-independent.
			var b strings.Builder
			for _, d := range Run(base, string(src), Options{}) {
				b.WriteString(d.String())
				b.WriteByte('\n')
			}
			got := b.String()

			golden := filepath.Join("testdata", base+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics changed.\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestGoldenCoverage pins the acceptance contract: the example corpus must
// exercise every major diagnostic class.
func TestGoldenCoverage(t *testing.T) {
	need := map[string]bool{
		"unused-var": false, "unused-param": false, "unreachable": false,
		"constant-cond": false, "dead-store": false, "maybe-uninit": false,
		"cost-stack": false, "cost-recursion": false,
		"dead-branch": false, "unreachable-block": false, "loop-unbounded": false,
	}
	files, _ := filepath.Glob(filepath.Join(examplesDir, "*.mc"))
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range Run(filepath.Base(path), string(src), Options{}) {
			if d.Severity == SevError {
				t.Errorf("%s: example does not lint cleanly: %v", path, d)
			}
			if _, tracked := need[d.Code]; tracked {
				need[d.Code] = true
			}
		}
	}
	for code, seen := range need {
		if !seen {
			t.Errorf("no example triggers %q", code)
		}
	}
}

// TestJSONRoundTrip checks the -json contract: the encoded diagnostics
// decode back to the identical value.
func TestJSONRoundTrip(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(examplesDir, "lintdemo.mc"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run("lintdemo.mc", string(src), Options{})
	if len(diags) == 0 {
		t.Fatal("lintdemo produced no diagnostics")
	}
	data, err := json.Marshal(diags)
	if err != nil {
		t.Fatal(err)
	}
	var back []Diag
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(diags, back) {
		t.Fatalf("round trip changed the diagnostics:\n%v\n%v", diags, back)
	}
}

// TestCycleBudget checks the opt-in cost-cycles lint: with a one-cycle
// budget even the smallest loop-free procedure is over.
func TestCycleBudget(t *testing.T) {
	src := `
func helper(a int) int { return a + 1; }
func main() { debug(helper(2)); }`
	var hits int
	for _, d := range Run("t.mc", src, Options{MaxCycles: 1}) {
		if d.Code == "cost-cycles" {
			hits++
		}
	}
	// Both helper and main are loop-free and cost more than one cycle.
	if hits != 2 {
		t.Fatalf("cost-cycles fired %d times, want 2", hits)
	}
}

// TestCostReport checks -costs emits an informational summary per
// procedure.
func TestCostReport(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(examplesDir, "clean.mc"))
	if err != nil {
		t.Fatal(err)
	}
	var infos []Diag
	for _, d := range Run("clean.mc", string(src), Options{CostReport: true}) {
		if d.Severity != SevInfo {
			t.Fatalf("clean example has a non-info diagnostic: %v", d)
		}
		infos = append(infos, d)
	}
	if len(infos) != 2 { // update and main
		t.Fatalf("cost report entries = %d, want 2", len(infos))
	}
	for _, d := range infos {
		if d.Code != "cost-info" || !strings.Contains(d.Msg, "stack <=") {
			t.Fatalf("unexpected report entry: %v", d)
		}
	}
}

// TestPageReport checks -pages emits a flash-page occupancy entry per
// procedure.
func TestPageReport(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(examplesDir, "pagedemo.mc"))
	if err != nil {
		t.Fatal(err)
	}
	perCode := map[string][]Diag{}
	for _, d := range Run("pagedemo.mc", string(src), Options{PageReport: true}) {
		if d.Severity != SevInfo {
			t.Fatalf("pagedemo has a non-info diagnostic: %v", d)
		}
		perCode[d.Code] = append(perCode[d.Code], d)
	}
	if n := len(perCode["page-info"]); n != 3 { // fault, guard, main
		t.Fatalf("page-info entries = %d, want 3: %v", n, perCode["page-info"])
	}
	for _, d := range perCode["page-info"] {
		if !strings.Contains(d.Msg, "flash page") {
			t.Fatalf("page-info entry missing occupancy: %v", d)
		}
	}
}

// TestGoldenPageReport pins the full -pages listing for the page demo.
func TestGoldenPageReport(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(examplesDir, "pagedemo.mc"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, d := range Run("pagedemo.mc", string(src), Options{PageReport: true}) {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	got := b.String()

	golden := filepath.Join("testdata", "pagedemo.mc.pages.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("page report changed.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestEventLoopNotFlagged checks that a deliberate while(1) event loop —
// which has no exit at all — is not reported as loop-unbounded, while a
// data-dependent exit in the same program is.
func TestEventLoopNotFlagged(t *testing.T) {
	src := `
func main() {
	var n int = 0;
	while (sense() > 50) {
		n = n + 1;
	}
	while (1) {
		led(n & 1);
	}
}`
	var hits int
	for _, d := range Run("t.mc", src, Options{}) {
		if d.Code == "loop-unbounded" {
			hits++
			if d.Line != 4 {
				t.Errorf("loop-unbounded at line %d, want 4 (the data-dependent loop)", d.Line)
			}
		}
	}
	if hits != 1 {
		t.Fatalf("loop-unbounded fired %d times, want 1", hits)
	}
}

// TestParseErrorIsDiag checks fatal front-end failures surface as
// positioned error diagnostics rather than aborting the run.
func TestParseErrorIsDiag(t *testing.T) {
	diags := Run("bad.mc", "func main() { x = ; }", Options{})
	if len(diags) != 1 || diags[0].Severity != SevError || diags[0].Code != "parse-error" {
		t.Fatalf("diags = %v, want one parse-error", diags)
	}
	if diags[0].Line == 0 {
		t.Fatal("parse error lost its position")
	}
	diags = Run("bad.mc", "func main() { bogus(); }", Options{})
	if len(diags) != 1 || diags[0].Code != "check-error" {
		t.Fatalf("diags = %v, want one check-error", diags)
	}
}
