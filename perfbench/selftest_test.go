package main

// Self-test of the benchmark: a very short run of every workload prints
// every metric BENCHMARK.json names, with its unit; a wrong reference
// answer fails the run; cold-compile's restart phase compiles nothing.
//
//	cd perfbench && go test -v .
//
// Each case runs the benchmark as a child process (this test binary
// re-executed with PERFBENCH_CHILD=1), exactly as the command line does.

import (
	"encoding/json"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_CHILD") == "1" {
		main()
	}
	os.Exit(m.Run())
}

type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// runChild runs the benchmark with args and returns its output, the
// parsed last line (nil when it is not a result) and whether it exited 0.
func runChild(t *testing.T, args ...string) (string, *result, bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append(args, "--seconds", "2", "--out", t.TempDir())...)
	cmd.Env = append(os.Environ(), "PERFBENCH_CHILD=1")
	out, err := cmd.Output()
	if err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil {
		return string(out), nil, err == nil
	}
	return string(out), &res, err == nil
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	d := readDeclared(t)
	for _, w := range d.Workloads {
		for _, trace := range []string{"0", "1"} {
			want := d.EndToEnd
			if trace == "1" {
				want = d.PerLayer
			}
			out, res, ok := runChild(t, "--workload", w.Name, "--seed", "3", "--trace", trace)
			if !ok || res == nil || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace %s: exit ok=%v result %+v\n%s", w.Name, trace, ok, res, out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
			if w.Name == "cold-compile" {
				re := regexp.MustCompile(`restart: (\d+) plans, (\d+) requests served, (\d+) compiles`)
				m := re.FindStringSubmatch(out)
				if m == nil || m[1] == "0" || m[3] != "0" {
					t.Errorf("cold-compile trace %s: restart line %q, want stored plans and 0 compiles", trace, m)
				}
			}
		}
	}
}

func TestWrongReferenceFailsTheRun(t *testing.T) {
	for _, w := range readDeclared(t).Workloads {
		out, res, ok := runChild(t, "--workload", w.Name, "--seed", "4", "--trace", "0", "--corrupt-reference")
		if ok || res == nil || res.Correct || !strings.Contains(out, "WRONG ANSWER") {
			t.Errorf("%s with a wrong reference: exit ok=%v result %+v\n%s", w.Name, ok, res, out)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if _, res, ok := runChild(t, "--workload", "nope"); ok || res != nil {
		t.Errorf("unknown workload: exit ok=%v result %+v", ok, res)
	}
}
