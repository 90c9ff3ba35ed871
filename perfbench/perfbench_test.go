package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"zofs/internal/proc"
)

func TestQuantileRanksFailuresAtCeiling(t *testing.T) {
	var l latencies
	for i := int64(1); i <= 97; i++ {
		l.add(i*10, false)
	}
	for i := 0; i < 3; i++ {
		l.add(1, true) // a failed op's own latency is ignored
	}
	if l.n() != 100 {
		t.Fatalf("n = %d, want 100 attempted", l.n())
	}
	// Distinct values sit at rank midpoints: the value 10*i at (i-0.5)/100.
	if got := l.quantile(0.50); math.Abs(got-505) > 1e-9 {
		t.Errorf("p50 = %v, want 505", got)
	}
	if got := l.quantile(0.97); math.Abs(got-970) > 1e-9 {
		t.Errorf("p97 = %v, want 970 (the last completed op)", got)
	}
	if got := l.quantile(0.99); got != failCeilingNS {
		t.Errorf("p99 = %v, want the failure ceiling %d", got, failCeilingNS)
	}
	if got := l.beyond(0.99); got != 1 {
		t.Errorf("beyond p99 = %d, want 1", got)
	}
}

func TestQuantileOfDiscreteLevels(t *testing.T) {
	var l latencies
	for i := 0; i < 60; i++ {
		l.add(500, false)
	}
	for i := 0; i < 40; i++ {
		l.add(800, false)
	}
	// 500 occupies ranks 1-60 (midpoint 0.30), 800 ranks 61-100 (0.80).
	for _, c := range []struct{ q, want float64 }{{0.1, 500}, {0.3, 500}, {0.55, 650}, {0.8, 800}, {0.999, 800}} {
		if got := l.quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("q%.3f = %v, want %v", c.q, got, c.want)
		}
	}
	var empty latencies
	if empty.quantile(0.5) != 0 {
		t.Error("empty sample must read 0")
	}
}

// The perm-coffers workload fails operations at this commit (evictOne can
// unmap the coffer of the operation in flight), which makes it the real
// failing input for the failure accounting.
func TestFailureAccountingOnPermCoffers(t *testing.T) {
	r, err := runRound(workloadByName("perm-coffers"), 1, hooks{})
	if errors.Is(err, errStalled) {
		// A fault inside zofs.(*FS).dcacheBuild leaves the directory's
		// cache mutex held, so some interleavings block a thread for good.
		t.Skipf("perm-coffers stalled on a lock a recovered fault left held: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if r.failed == 0 {
		t.Skip("perm-coffers completed every operation; the synthetic quantile tests still cover the accounting")
	}
	var acc e2e
	acc.add(r)
	rep := acc.report()
	if rep.attempted != r.attempted || rep.failed != r.failed || r.attempted != int64(len(r.samples)) {
		t.Fatalf("attempted/failed = %d/%d, round %d/%d with %d samples", rep.attempted, rep.failed, r.attempted, r.failed, len(r.samples))
	}
	completed := float64(r.attempted - r.failed)
	if got, want := find(rep, "vthroughput_kops"), completed/float64(r.vns)*1e6; got != want {
		t.Errorf("vthroughput_kops = %v, want goodput %v", got, want)
	}
	frac := float64(r.failed) / float64(r.attempted)
	for _, c := range []struct {
		name string
		q    float64
	}{{"vlat_p50_ns", 0.5}, {"vlat_p99_ns", 0.99}, {"vlat_p999_ns", 0.999}} {
		got := find(rep, c.name)
		if 1-c.q < frac && got != failCeilingNS {
			t.Errorf("%s = %v with %.3f of ops failed, want the ceiling", c.name, got, frac)
		}
		if got > failCeilingNS {
			t.Errorf("%s = %v exceeds the ceiling", c.name, got)
		}
	}
	if !strings.Contains(rep.lines[0], "fail_frac") {
		t.Errorf("report lacks the fail_frac line: %q", rep.lines)
	}
}

// blocked is an instance whose second operation never returns.
type blocked struct{ ch chan struct{} }

func (b blocked) step(i int, th *proc.Thread) (opKind, error) {
	if i == 1 {
		<-b.ch
	}
	th.CPU(100)
	return opStat, nil
}

func (blocked) verify(*proc.Thread) error { return nil }

func TestClosedLoopReportsStall(t *testing.T) {
	e, err := newEnv(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	defer e.release()
	ths := []*proc.Thread{e.proc.NewThread(), e.proc.NewThread()}
	b := blocked{make(chan struct{})}
	defer close(b.ch)
	if _, _, err := closedLoop(b, ths, 1000, 0, 200*time.Millisecond); !errors.Is(err, errStalled) {
		t.Fatalf("closedLoop with a blocked thread = %v, want errStalled", err)
	}
}

func TestOutputCheckCatchesWrongByte(t *testing.T) {
	e, err := newEnv(workloadByName("data-rw").devBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer e.release()
	d, err := prepareDataRW(e, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.verify(e.th); err != nil {
		t.Fatalf("fresh data-rw fails its check: %v", err)
	}
	dr := d.(*dataRW)
	if _, err := e.lib.Pwrite(e.th, dr.ts[1].fds[7], []byte{0xff}, 3*blockSize+100); err != nil {
		t.Fatal(err)
	}
	if err := d.verify(e.th); !errors.Is(err, errWrongOutput) {
		t.Fatalf("verify after a stray byte = %v, want a wrong-output error", err)
	}
}

// kv-lsm runs one simulated thread, so a traced round must repeat its
// untraced twin bit for bit.
func TestKVLSMTracingIsNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three traced rounds")
	}
	rep, err := runTraced(workloadByName("kv-lsm"), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.checkErr != nil {
		t.Fatal(rep.checkErr)
	}
	if got := find(rep, "obs.vdelta_max"); got != 0 {
		t.Errorf("obs.vdelta_max = %v, want 0", got)
	}
	if got := find(rep, "lsmdb.compactions"); got <= 0 {
		t.Errorf("lsmdb.compactions = %v, want compactions in the timed phase", got)
	}
}

func TestLeafCPUGroups(t *testing.T) {
	for fn, want := range map[string]string{
		"zofs/internal/nvm.(*Device).Read": "nvm",
		"zofs/internal/mpk.PKRU.Allows":    "proc_mpk",
		"runtime.mallocgc":                 "runtime",
		"internal/runtime/maps.(*Map).Get": "runtime",
		"sync.(*Mutex).Lock":               "other",
		"main.(*dataRW).step":              "other",
	} {
		if got := cpuGroup(fn); got != want {
			t.Errorf("cpuGroup(%q) = %q, want %q", fn, got, want)
		}
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip(err)
	}
	x := 1.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		x = math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	groups := map[string]float64{}
	if err := addLeafCPU(buf.Bytes(), groups); err != nil {
		t.Fatal(err)
	}
	var total float64
	for g, v := range groups {
		if !strings.Contains(strings.Join(cpuGroupNames, " "), g) {
			t.Errorf("unknown group %q", g)
		}
		total += v
	}
	if total <= 0 {
		t.Errorf("decoded no CPU time from a %d-byte profile (x=%v)", buf.Len(), x)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestSpecMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json lists workload %q, which the program does not have", w.Name)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEndSpec) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(spec.EndToEnd), len(endToEndSpec))
	}
	var acc e2e
	acc.add(&round{attempted: 1, vns: 1, samples: []sample{{ns: 1}}})
	emitted := acc.report().metrics
	for i, m := range spec.EndToEnd {
		p := endToEndSpec[i]
		if m.Name != p.name || m.Unit != p.unit || m.Better != p.better || m.Bound != p.bound {
			t.Errorf("end_to_end[%d] = %+v, program %+v", i, m, p)
		}
		if emitted[i].name != p.name || emitted[i].unit != p.unit {
			t.Errorf("emitted metric %d is %s [%s], spec %s [%s]", i, emitted[i].name, emitted[i].unit, p.name, p.unit)
		}
		row := "| `" + p.name + "` | " + p.unit + " | " + p.better + " | " + strconv.FormatFloat(p.bound, 'g', -1, 64) + " |"
		if !bytes.Contains(readme, []byte(row)) {
			t.Errorf("README.md has no row starting %q", row)
		}
	}

	layers := layerSamples{byKind: make([]latencies, numOpKinds), extra: map[string]float64{}}
	var lines []string
	perLayer := newTracer().layerMetrics(&layers, map[string]float64{}, 1, 0, &lines)
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the traced run emits %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s [%s], emitted %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
