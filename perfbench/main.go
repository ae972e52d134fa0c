// Command perfbench is circuitql's benchmark. It drives the serving
// system from outside — the wire server and client, the engine, the
// plan store and the tracer — on one of three workloads, checks every
// answer against the RAM evaluator, and prints its metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": n, "failed": n, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (tracing off);
// with --trace 1 they are the per-layer ones, from a traced run.
//
//	bash perfbench/run.sh --workload hot-wire --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	hot-wire      one wire client, warm plans, a fixed shape mix
//	hot-batch     64-request same-plan batches into a coalescing engine
//	cold-compile  fresh fingerprints compiled and stored, then a restart
//
// The program exits non-zero on any wrong answer.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// bench is one run's settings and scratch space.
type bench struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	// corrupt makes one reference answer wrong, so a self-test can see
	// the run fail.
	corrupt bool
	// dir holds this run's plan stores and span file; removed at exit
	// except for the span file, which outDir keeps.
	dir    string
	outDir string
	epoch  time.Time
	tmps   int
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int64
	wrong             int64
	metrics           []metric
}

// mismatch records a wrong answer; the first few are printed.
func (o *outcome) mismatch(format string, args ...any) {
	o.wrong++
	if o.wrong <= 5 {
		fmt.Printf("# WRONG ANSWER: "+format+"\n", args...)
	}
}

const (
	// heldOutSeed is never used while tuning a change; a claimed gain
	// must also hold on it.
	heldOutSeed = 90017
	// setupReps is how many times a run sets its system up; setup_s is
	// the median.
	setupReps = 3
)

var workloads = map[string]func(*bench) (*outcome, error){
	"hot-wire":     runHotWire,
	"hot-batch":    runHotBatch,
	"cold-compile": runColdCompile,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		b       bench
		seconds int
		trace   int
	)
	flag.StringVar(&b.workload, "workload", "", "hot-wire, hot-batch or cold-compile")
	flag.Int64Var(&b.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.BoolVar(&b.corrupt, "corrupt-reference", false, "self-test: make one reference answer wrong")
	flag.StringVar(&b.outDir, "out", ".perfbench", "directory for scratch stores and span files")
	flag.Parse()
	fn, ok := workloads[b.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload hot-wire|hot-batch|cold-compile --seed N --seconds S --trace 0|1")
		return 2
	}
	b.dur = time.Duration(seconds) * time.Second
	b.trace = trace == 1
	b.epoch = time.Now()
	printHost(&b)

	b.dir = filepath.Join(b.outDir, fmt.Sprintf("run-%s-%d", b.workload, os.Getpid()))
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := fn(&b)
	os.RemoveAll(b.dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !b.trace {
		out.metrics = append(out.metrics, metric{"peak_rss_mb", peakRSSMB(), "MB"})
	}
	fmt.Printf("# attempted=%d failed=%d error_rate=%.6f wrong=%d\n",
		out.attempted, out.failed, float64(out.failed)/float64(max(out.attempted, 1)), out.wrong)
	res := map[string]any{
		"correct":   out.wrong == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
	}
	ms := map[string]any{}
	for _, m := range out.metrics {
		fmt.Printf("# %-26s %14.6f %s\n", m.name, m.value, m.unit)
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	res["metrics"] = ms
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if out.wrong > 0 {
		return 1
	}
	return 0
}

// printHost prints the facts that make numbers from two hosts
// incomparable, so they are never compared silently.
func printHost(b *bench) {
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%.0f trace=%v (held-out seed for confirming claims: %d)\n",
		b.workload, b.seed, b.dur.Seconds(), b.trace, heldOutSeed)
	fmt.Printf("# host nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// rng returns a generator for one purpose of the run, derived from the
// seed, so set-up repetitions regenerate identical inputs.
func (b *bench) rng(purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(b.seed*1_000_003 + purpose))
}

// tmp names a fresh scratch directory inside the run's directory.
func (b *bench) tmp(name string) string {
	b.tmps++
	return filepath.Join(b.dir, fmt.Sprintf("%s-%d", name, b.tmps))
}

// spanPath is where a traced run leaves its spans.
func (b *bench) spanPath() string {
	return filepath.Join(b.outDir, "spans-"+b.workload+".jsonl")
}

// endToEnd assembles the end-to-end metrics of an untraced run from
// its phases, one per system instance. Throughput is the median over
// instances. The latency percentiles are medians over windows of length
// win within the instances (win 0: one window per instance), so a stall
// of the host that covers fewer than half the windows does not move
// them.
func endToEnd(phases []phase, win time.Duration, tailQ float64, setups []time.Duration, rs restartStats, gates, depth int) []metric {
	var rps []float64
	var p50s, tails samples
	fewest := -1
	for i, ph := range phases {
		rps = append(rps, ph.rps())
		for _, w := range ph.windows(win) {
			w = w.sorted()
			p50s = append(p50s, w.quantile(0.5))
			tails = append(tails, w.quantile(tailQ))
			if fewest < 0 || len(w) < fewest {
				fewest = len(w)
			}
		}
		lat := ph.lat.sorted()
		fmt.Printf("# instance %d: %d requests in %v, %.2f/s, p50 %s, p%02.0f %s\n", i, ph.n,
			ph.elapsed.Round(time.Millisecond), ph.rps(), lat.describe(0.5), tailQ*100, lat.describe(tailQ))
	}
	fmt.Printf("# latency_tail_ms is p%02.0f; %d windows, the smallest with %d samples (%d beyond p%02.0f)\n",
		tailQ*100, len(p50s), fewest, fewest-int(math.Ceil(tailQ*float64(fewest))), tailQ*100)
	fmt.Printf("# setup runs %v; %d restarts, median %v\n", setups, len(rs.restart), median(rs.restart))
	return []metric{
		{"throughput_rps", medianFloat(rps), "1/s"},
		{"latency_p50_ms", ms(median(p50s)), "ms"},
		{"latency_tail_ms", ms(median(tails)), "ms"},
		{"setup_s", median(setups).Seconds(), "s"},
		{"restart_s", median(rs.restart).Seconds(), "s"},
		{"word_gates", float64(gates), "count"},
		{"word_depth", float64(depth), "count"},
	}
}
