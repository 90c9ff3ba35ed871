// Command zofs-bench regenerates the paper's evaluation artifacts: every
// table and figure of §6 plus the motivating surveys of §2.
//
// Usage:
//
//	zofs-bench [-quick] [-stats] [-threads 1,2,4,8,12,16,20] [-obs dir]
//	           [-trace file] [experiment ...]
//
// Experiments: table1 table2 table3 table4 fig7 fig8 fig9 fig10 table7
// fig11 table9 safety recovery crashmc hotpath neutral spans series wa
// fxmark-scale chaos — or "all" (the default).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"zofs/internal/harness"
	"zofs/internal/pmemtrace"
)

var experiments = []struct {
	name string
	desc string
	run  func(io.Writer, harness.Options) error
}{
	{"table1", "DRAM vs Optane latency/bandwidth", harness.RunTable1},
	{"table2", "shared append/create latency (Strata/NOVA/ZoFS)", harness.RunTable2},
	{"table3", "application permission survey", harness.RunTable3},
	{"table4", "FSL-Homes grouping analysis", harness.RunTable4},
	{"fig7", "FxMark sweep over all file systems", harness.RunFig7},
	{"fig8", "DWOL throughput breakdown", harness.RunFig8},
	{"fig9", "Filebench sweep", harness.RunFig9},
	{"fig10", "Filebench customized configs", harness.RunFig10},
	{"table7", "LevelDB db_bench latencies", harness.RunTable7},
	{"fig11", "TPC-C SQLite throughput", harness.RunFig11},
	{"table9", "worst-case chmod/rename", harness.RunTable9},
	{"safety", "stray-write and malicious-metadata tests", harness.RunSafety},
	{"recovery", "coffer recovery timing", harness.RunRecovery},
	{"crashmc", "crash-state model checker and fault injection", harness.RunCrashMC},
	{"hotpath", "zero-copy hot path vs copy-path baseline", harness.RunHotpath},
	{"neutral", "observer neutrality gate: every observer off vs all on, bit-identical ops and virtual ns", harness.RunNeutral},
	{"spans", "causal-span attribution/OpenMetrics gate", harness.RunSpans},
	{"series", "tail observatory gate: merge-exact windows, exemplars, SLO burn", harness.RunSeries},
	{"wa", "write-amplification and byte-conservation gate", harness.RunWA},
	{"fxmark-scale", "FxMark scalability matrix with per-lock contention attribution", harness.RunFxmarkScale},
	{"chaos", "adversarial campaign: byzantine clients, lease steal, quarantine containment", harness.RunChaos},
}

func main() {
	quick := flag.Bool("quick", false, "smaller, faster runs")
	threads := flag.String("threads", "", "comma-separated thread sweep (default 1,2,4,8,12,16,20)")
	devGB := flag.Int64("device-gb", 8, "simulated device size in GiB")
	stats := flag.Bool("stats", false, "per-layer telemetry: print counter/latency tables per cell and write metrics sidecar JSON")
	scaleGate := flag.Bool("scale-gate", false, "fxmark-scale only: widen the sweep to 64 and 512 threads and fail if ZoFS MWCL/MWRL peak before 64T or any of DWAL/MWCL/MWRL holds <50% of peak at 512T")
	statsDir := flag.String("statsdir", "results", "directory for metrics-<experiment>-<config>.json sidecars")
	traceFile := flag.String("trace", "", "record every NVM persistence event to this JSONL file (audit/export with zofs-obs trace; best with -quick and a single experiment)")
	obsDir := flag.String("obs", "", "collect causal spans, windowed series and lock contention for the whole run and publish them into this directory (inspect with zofs-obs top, locks, diff and trace export)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: zofs-bench [flags] [experiment ...]\n\nexperiments:\n")
		for _, e := range experiments {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.name, e.desc)
		}
		fmt.Fprintln(os.Stderr, "  all      everything above (default)")
		flag.PrintDefaults()
	}
	flag.Parse()

	opts := harness.Options{Quick: *quick, DeviceBytes: *devGB << 30, Stats: *stats, StatsDir: *statsDir, ScaleGate: *scaleGate}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zofs-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "zofs-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zofs-bench: -memprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "zofs-bench: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	if *obsDir != "" {
		stop, err := observe(*obsDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zofs-bench: -obs: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintf(os.Stderr, "zofs-bench: -obs: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	var tracer *pmemtrace.Recorder
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zofs-bench: -trace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		tracer = pmemtrace.Enable(pmemtrace.Config{RingCap: 1 << 20, Spill: f})
		defer func() {
			pmemtrace.Disable()
			if err := tracer.FlushSpill(); err != nil {
				fmt.Fprintf(os.Stderr, "zofs-bench: -trace spill: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("==== persistence audit (%d events -> %s) ====\n", tracer.Total(), *traceFile)
			pmemtrace.Audit(tracer.Events(), nil).WriteText(os.Stdout)
		}()
	}
	if *threads != "" {
		for _, part := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "zofs-bench: bad -threads %q\n", *threads)
				os.Exit(2)
			}
			opts.Threads = append(opts.Threads, n)
		}
	}

	want := flag.Args()
	if len(want) == 0 || (len(want) == 1 && want[0] == "all") {
		want = nil
		for _, e := range experiments {
			want = append(want, e.name)
		}
	}
	known := map[string]func(io.Writer, harness.Options) error{}
	for _, e := range experiments {
		known[e.name] = e.run
	}
	for _, name := range want {
		run, ok := known[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "zofs-bench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Printf("==== %s ====\n", name)
		start := time.Now()
		if err := run(os.Stdout, opts); err != nil {
			fmt.Fprintf(os.Stderr, "zofs-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("---- %s done in %v ----\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}
