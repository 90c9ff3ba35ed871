// Command perfbench is the end-to-end benchmark of the ZoFS simulator.
//
// Each round formats and mounts a fresh ZoFS instance through the public
// path (kernfs.Mkfs, kernfs.Mount, proc.NewProcess, fslibs.Mount,
// EnsureRootDir), prepares one workload from a seed, runs a fixed number of
// operations per simulated thread in a closed loop and checks every output
// against an oracle, then runs fsck and the kernel space audit. Rounds
// repeat, each with a seed derived from --seed, until --seconds have
// passed. The last line of standard output is one JSON object holding the
// end-to-end metrics (--trace 0, every observer off) or the per-layer
// metrics (--trace 1, from a traced round paired with an untraced one of
// the same seed). README.md in this directory defines every metric.
//
//	go run . --workload data-rw --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// minRounds is the fewest rounds a run makes, so that set-up time is a
// median of several.
const minRounds = 3

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	note  string
}

// report is a run's outcome.
type report struct {
	attempted, failed int64
	metrics           []metric
	lines             []string // extra human-readable detail
	// checkErr is the first failed output check, fsck, space audit or
	// observer-neutrality check; the run is then not correct.
	checkErr error
}

func main() {
	name := flag.String("workload", "", "workload to run (meta-churn, data-rw, kv-lsm, perm-coffers)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "how long to keep starting rounds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, observers off; 1: per-layer metrics from traced rounds")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTraced(w, *seed, budget)
	} else {
		rep, err = runPlain(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s seed %d: %v\n", w.name, *seed, err)
		os.Exit(1)
	}
	fmt.Printf("workload %s (%s), seed %d\n", w.name, w.sizes, *seed)
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	for _, m := range rep.metrics {
		fmt.Printf("%-32s %16.4f %-10s %s\n", m.name, m.value, m.unit, m.note)
	}
	printJSON(rep.checkErr == nil, rep)
	if rep.checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s seed %d: %v\n", w.name, *seed, rep.checkErr)
		os.Exit(1)
	}
}

func printJSON(correct bool, rep *report) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, rep.attempted, rep.failed, map[string]value{}}
	for _, m := range rep.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// roundSeed derives round r's seed from the run seed.
func roundSeed(seed int64, r int) int64 {
	return int64(mix64(uint64(seed)<<16^uint64(r)) >> 24)
}

// runPlain runs untraced rounds and reports the end-to-end metrics.
func runPlain(w *workload, seed int64, budget time.Duration) (*report, error) {
	t0 := time.Now()
	var acc e2e
	var checkErr error
	for r := 0; checkErr == nil && (r < minRounds || time.Since(t0) < budget); r++ {
		rd, err := runRound(w, roundSeed(seed, r), hooks{})
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		acc.add(rd)
		checkErr = rd.checkErr
	}
	rep := acc.report()
	rep.checkErr = checkErr
	return rep, nil
}

// e2e accumulates rounds into the end-to-end metrics.
type e2e struct {
	lat                      latencies
	attempted, failed        int64
	vns, media               int64
	cpuPerOp, setupS, peakMB []float64
}

func (a *e2e) add(r *round) {
	for _, s := range r.samples {
		a.lat.add(s.ns, s.failed)
	}
	a.attempted += r.attempted
	a.failed += r.failed
	a.vns += r.vns
	a.media += r.media
	a.cpuPerOp = append(a.cpuPerOp, r.cpuS/float64(r.attempted)*1e6)
	a.setupS = append(a.setupS, r.setupS)
	a.peakMB = append(a.peakMB, r.peakMB)
}

func (a *e2e) report() *report {
	rep := &report{attempted: a.attempted, failed: a.failed}
	completed := a.attempted - a.failed
	pct := func(name string, q float64) metric {
		return metric{name, "ns", a.lat.quantile(q), fmt.Sprintf("n=%d, %d beyond", a.lat.n(), a.lat.beyond(q))}
	}
	rep.metrics = []metric{
		{"vthroughput_kops", "kops/s", float64(completed) / float64(a.vns) * 1e6, fmt.Sprintf("%d completed ops in %d virtual ns", completed, a.vns)},
		pct("vlat_p50_ns", 0.50),
		pct("vlat_p99_ns", 0.99),
		pct("vlat_p999_ns", 0.999),
		{"cpu_us_per_op", "us", median(a.cpuPerOp), fmt.Sprintf("median of %d rounds", len(a.cpuPerOp))},
		{"setup_s", "s", median(a.setupS), fmt.Sprintf("median of %d rounds", len(a.setupS))},
		{"media_bytes_per_op", "B/op", float64(a.media) / float64(a.attempted), ""},
		{"max_rss_mb", "MiB", median(a.peakMB), fmt.Sprintf("median of %d rounds' peaks", len(a.peakMB))},
	}
	rep.lines = append(rep.lines, fmt.Sprintf("fail_frac %.6f (%d failed of %d attempted; failed ops rank at %d ns)",
		float64(a.failed)/float64(a.attempted), a.failed, a.attempted, failCeilingNS))
	return rep
}
