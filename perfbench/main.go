// Command perfbench is the repository's benchmark. It generates a
// workload's request stream from a seed, encodes it in the FDCT binary
// trace format, replays it closed loop through hier.System or
// engine.Engine, checks the outputs and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, medians over
// repeated set-ups and replays; with --trace 1 a separate traced run
// gives the per-layer ones. README.md describes the workloads and
// metrics. Run it from the repository root through run.sh, which
// builds it:
//
//	bash perfbench/run.sh --workload read-websearch --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// traceBatch is the request count of one generation, decode and
// RunBatch slice in the traced run, and of one component-replay slice.
// At 1M requests it yields ~2000 RunBatch samples, enough for a p99
// with ten samples beyond it.
const traceBatch = 512

// minReps is the least number of end-to-end repetitions in one run,
// however short --seconds is, so every reported value is a median.
const minReps = 3

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// hostInfo is the host context recorded with every result.
type hostInfo struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      int    `json:"trace"`
}

func hostContext() hostInfo {
	h := hostInfo{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		Go:         runtime.Version(),
		Commit:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

// admit refuses a workload that would run more replay threads than the
// host has CPUs, so a result from a smaller host cannot pass for a
// scaling result.
func (h hostInfo) admit(s spec) error {
	if h.GOMAXPROCS > h.Nproc {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the host's %d CPUs", h.GOMAXPROCS, h.Nproc)
	}
	if s.workers > h.GOMAXPROCS {
		return fmt.Errorf("workload %s replays on %d threads; this host allows %d (nproc %d)",
			s.name, s.workers, h.GOMAXPROCS, h.Nproc)
	}
	return nil
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (read-websearch, write-gc-alpha1, campaign-dbt2)")
	seed := fs.Uint64("seed", 1, "seed for the generated inputs and the simulator")
	seconds := fs.Int("seconds", 10, "how long the end-to-end run repeats set-up and replay")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload NAME --seed N --seconds S (S >= 1) --trace 0|1")
		return 2
	}
	s, err := lookupSpec(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	host := hostContext()
	host.Workload, host.Seed, host.Trace = s.name, *seed, *traceMode
	if err := host.admit(s); err != nil {
		fmt.Fprintln(stderr, "perfbench: refused:", err)
		return 2
	}
	hostLine, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hostLine)

	res := result{Correct: true, Metrics: map[string]metricJSON{}}
	var metrics []metric
	if *traceMode == 0 {
		e, err := runE2E(s, *seed, time.Duration(*seconds)*time.Second, minReps)
		if err != nil {
			return fail(stdout, stderr, s, err)
		}
		res.Attempted, res.Failed = e.attempted, e.failed
		metrics = e2eMetrics(e)
		fmt.Fprintf(stdout, "reps %d (spread within run: setup %.3f, replay %.3f, total %.3f of median)\n",
			e.reps, e.setupIQR, e.rateIQR, e.totalIQR)
		fmt.Fprintf(stdout, "failed_frac %g ratio\n", float64(e.failed)/float64(e.attempted))
	} else {
		tr := newTracer()
		var failed int
		metrics, failed, err = runLayers(s, *seed, tr)
		if err != nil {
			return fail(stdout, stderr, s, err)
		}
		res.Attempted, res.Failed = s.requests, failed
		path := filepath.Join(".bench_build", "perfbench", "spans", fmt.Sprintf("%s-seed%d.jsonl", s.name, *seed))
		if err := tr.write(path, host); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %d -> %s\n", len(tr.spans), path)
	}
	for _, m := range metrics {
		if !isFinite(m.value) {
			return fail(stdout, stderr, s, fmt.Errorf("metric %s is %v", m.name, m.value))
		}
		fmt.Fprintf(stdout, "%-28s %.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = metricJSON{m.value, m.unit}
	}
	return emit(stdout, stderr, res, 0)
}

// e2eMetrics lists the end-to-end metrics of an untraced run.
func e2eMetrics(e e2eResult) []metric {
	return append([]metric{
		{"setup_s", e.setup, "s"},
		{"replay_req_per_s", e.replayRate, "1/s"},
		{"total_s", e.total, "s"},
		{"peak_rss_mb", peakRSSMB(), "MiB"},
	}, e.out.simMetrics()...)
}

// fail reports a failed check and prints a correct=false result; the
// process exits 1.
func fail(stdout, stderr io.Writer, s spec, err error) int {
	fmt.Fprintf(stderr, "perfbench: %s: correctness check failed: %v\n", s.name, err)
	return emit(stdout, stderr, result{Attempted: s.requests, Failed: s.requests, Metrics: map[string]metricJSON{}}, 1)
}

func emit(stdout, stderr io.Writer, res result, code int) int {
	w := bufio.NewWriter(stdout)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if err := w.Flush(); err != nil {
		return 1
	}
	return code
}
