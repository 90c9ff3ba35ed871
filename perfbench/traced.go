package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"
	"slices"
	"sort"
	"time"

	"zofs/internal/byteflow"
	"zofs/internal/lockprof"
	"zofs/internal/spans"
	"zofs/internal/telemetry"
)

// virtualMetrics are the end-to-end metrics computed from virtual time and
// device counters alone; observers must leave them unchanged.
var virtualMetrics = []string{"vthroughput_kops", "vlat_p50_ns", "vlat_p99_ns", "vlat_p999_ns", "media_bytes_per_op"}

// tracer owns the observers of the traced rounds and adds up what they saw
// during the timed phases.
type tracer struct {
	rec *telemetry.Recorder
	col *spans.Collector
	reg *lockprof.Registry

	counters  map[string]int64 // telemetry counters
	comp      map[string]int64 // spans virtual self time per component
	dcHits    int64
	dcMisses  int64
	lockWait  int64
	lockClass map[string]int64 // virtual lock wait per lock class
	app       int64            // byte-flow application bytes
	media     int64            // byte-flow media bytes
	issued    [byteflow.NumClasses]int64
}

func newTracer() *tracer {
	return &tracer{counters: map[string]int64{}, comp: map[string]int64{}, lockClass: map[string]int64{}}
}

// enable installs fresh observers; devices and threads created afterwards
// attach to them.
func (t *tracer) enable() {
	t.rec = telemetry.Enable()
	t.col = spans.Enable(spans.Config{RingCap: -1})
	t.reg = lockprof.Enable(lockprof.Config{})
}

func (t *tracer) disable() {
	telemetry.Disable()
	spans.Disable()
	lockprof.Disable()
	spans.OnSnapshot(nil) // installed by obsfs.Wrap; holds the round's device
}

func (t *tracer) hooks() hooks {
	return hooks{
		beforeTimed: func(e *env) {
			t.rec.Reset()
			t.col.Reset()
			t.reg.Reset()
			e.dev.EnableAccounting()
		},
		afterTimed: func(e *env) {
			for k, v := range t.rec.Snapshot().Counters {
				t.counters[k] += v
			}
			sp := t.col.Snapshot()
			for _, ob := range sp.Ops {
				for c, cs := range ob.Comp {
					t.comp[c] += cs.SumNS
				}
			}
			t.dcHits += sp.DcacheHits
			t.dcMisses += sp.DcacheMisses
			rep := t.reg.Snapshot()
			t.lockWait += rep.WaitNS
			for _, l := range rep.Locks {
				if !l.Real {
					t.lockClass[l.Class] += l.WaitNS
				}
			}
			f := e.dev.FlowSnapshot()
			t.app += f.App
			t.media += f.MediaBytes()
			for c := range f.Issued {
				t.issued[c] += f.Issued[c]
			}
		},
	}
}

// runTraced pairs every traced round with an untraced round of the same
// seed. The untraced rounds run under the CPU profiler only (which costs
// real time, not virtual time) and give the cpu.<group> shares and the base
// of obs.cpu_overhead_x; the traced rounds run with telemetry, spans,
// lockprof and device byte-flow accounting on and give the other per-layer
// metrics.
func runTraced(w *workload, seed int64, budget time.Duration) (*report, error) {
	t0 := time.Now()
	tr := newTracer()
	cpuByGroup := map[string]float64{}
	var prof bytes.Buffer
	var profErr error
	profile := hooks{
		beforeTimed: func(*env) {
			prof.Reset()
			profErr = pprof.StartCPUProfile(&prof)
		},
		afterTimed: func(*env) {
			if profErr == nil {
				pprof.StopCPUProfile()
				profErr = addLeafCPU(prof.Bytes(), cpuByGroup)
			}
		},
	}
	var base, obs e2e
	layers := layerSamples{byKind: make([]latencies, numOpKinds), extra: map[string]float64{}}
	var checkErr, identical error
	for r := 0; checkErr == nil && (r < minRounds || time.Since(t0) < budget); r++ {
		s := roundSeed(seed, r)
		p, err := runRound(w, s, profile)
		if err != nil {
			return nil, fmt.Errorf("round %d untraced: %w", r, err)
		}
		if profErr != nil {
			return nil, profErr
		}
		tr.enable()
		t, err := runRound(w, s, tr.hooks())
		tr.disable()
		if err != nil {
			return nil, fmt.Errorf("round %d traced: %w", r, err)
		}
		if w.threads == 1 && identical == nil && (p.vns != t.vns || p.media != t.media || !slices.Equal(p.samples, t.samples)) {
			identical = fmt.Errorf("traced round %d is not bit-identical to the untraced one (%d vs %d virtual ns)", r, t.vns, p.vns)
		}
		base.add(p)
		obs.add(t)
		layers.add(t)
		checkErr = errors.Join(p.checkErr, t.checkErr)
	}
	baseRep, obsRep := base.report(), obs.report()
	rep := &report{attempted: obsRep.attempted, failed: obsRep.failed, checkErr: checkErr}
	vdelta, err := neutrality(w, baseRep, obsRep, identical)
	if rep.checkErr == nil {
		rep.checkErr = err
	}
	rep.lines = append(rep.lines, fmt.Sprintf("%d untraced + %d traced rounds; virtual end-to-end metrics, untraced -> traced:", len(base.cpuPerOp), len(obs.cpuPerOp)))
	for _, name := range virtualMetrics {
		rep.lines = append(rep.lines, fmt.Sprintf("  %-20s %14.4f -> %14.4f", name, find(baseRep, name), find(obsRep, name)))
	}
	overhead := find(obsRep, "cpu_us_per_op") / find(baseRep, "cpu_us_per_op")
	rep.metrics = tr.layerMetrics(&layers, cpuByGroup, overhead, vdelta, &rep.lines)
	return rep, nil
}

// layerSamples pools what the traced rounds measured themselves.
type layerSamples struct {
	attempted, failed int64
	byKind            []latencies
	extra             map[string]float64
}

func (l *layerSamples) add(r *round) {
	l.attempted += r.attempted
	l.failed += r.failed
	for _, s := range r.samples {
		l.byKind[s.kind].add(s.ns, s.failed)
	}
	for k, v := range r.extra {
		l.extra[k] += v
	}
}

// find returns a report's metric value by name (0 if absent).
func find(rep *report, name string) float64 {
	for _, m := range rep.metrics {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// neutrality checks that tracing left virtual time alone: bit-identical
// rounds for a one-thread workload, whose virtual schedule is deterministic
// (identical is the first difference found, or nil), and every virtual
// end-to-end metric within its bound for two threads, whose interleaving
// follows the real scheduler. It returns the largest relative change seen.
func neutrality(w *workload, base, obs *report, identical error) (float64, error) {
	var worst float64
	var err error
	for _, name := range virtualMetrics {
		b, o := find(base, name), find(obs, name)
		d := math.Abs(o-b) / b
		worst = max(worst, d)
		if w.threads > 1 && d > endToEndBound(name) && err == nil {
			err = fmt.Errorf("observer neutrality: %s moved from %g to %g under tracing (bound %g)", name, b, o, endToEndBound(name))
		}
	}
	if w.threads == 1 && identical != nil {
		err = fmt.Errorf("observer neutrality: %w", identical)
	}
	return worst, err
}

// layerMetrics turns the traced rounds' samples and the tracer's totals
// into the per-layer metrics, in report order.
func (t *tracer) layerMetrics(l *layerSamples, cpuByGroup map[string]float64, overhead, vdelta float64, lines *[]string) []metric {
	attempted, failed, extra := l.attempted, l.failed, l.extra
	ops := float64(attempted)
	perOp := func(v float64) float64 { return v / ops }
	perKop := func(v float64) float64 { return 1000 * v / ops }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ctr := func(name string) float64 { return float64(t.counters[name]) }

	var ms []metric
	for _, k := range fslibsOps {
		lat := &l.byKind[k]
		name := "fslibs." + opNames[k]
		ms = append(ms,
			metric{name + ".p50_ns", "ns", lat.quantile(0.50), ""},
			metric{name + ".p99_ns", "ns", lat.quantile(0.99), ""},
			metric{name + ".n", "count", float64(lat.n()), "samples behind the two percentiles above"},
		)
	}
	ms = append(ms,
		metric{"fail_frac", "ratio", ratio(float64(failed), ops), fmt.Sprintf("%d failed of %d attempted", failed, attempted)},
		metric{"fslibs.faults_recovered", "count/kop", perKop(ctr("fslibs.faults_recovered")), ""},
		metric{"mpk.violations", "count/kop", perKop(ctr("mpk.violations")), ""},
		metric{"mpk.pkru_switches", "count/op", perOp(ctr("mpk.pkru_switches")), ""},
		metric{"zofs.dcache_hit_ratio", "ratio", ratio(float64(t.dcHits), float64(t.dcHits+t.dcMisses)), fmt.Sprintf("%d lookups", t.dcHits+t.dcMisses)},
		metric{"zofs.pages_alloc", "pages/op", perOp(ctr("zofs.pages_alloc")), ""},
		metric{"zofs.pages_freed", "pages/op", perOp(ctr("zofs.pages_freed")), ""},
	)
	for _, c := range []string{"syscalls", "coffer_enlarge", "coffer_new", "coffer_map", "coffer_unmap", "coffer_split", "coffer_merge"} {
		ms = append(ms, metric{"kernfs." + c, "count/kop", perKop(ctr("kernfs." + c)), ""})
	}
	var spanTotal int64
	for _, v := range t.comp {
		spanTotal += v
	}
	for c := spans.Component(0); c < spans.NumComponents; c++ {
		ms = append(ms, metric{"spans.share." + c.Name(), "ratio", ratio(float64(t.comp[c.Name()]), float64(spanTotal)), ""})
	}
	ms = append(ms, metric{"lockprof.wait_ns_per_op", "ns/op", perOp(float64(t.lockWait)), ""})
	classes := make([]string, 0, len(t.lockClass))
	for c := range t.lockClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool {
		a, b := t.lockClass[classes[i]], t.lockClass[classes[j]]
		return a > b || a == b && classes[i] < classes[j]
	})
	for i := 0; i < 3; i++ {
		var share float64
		if i < len(classes) {
			share = ratio(float64(t.lockClass[classes[i]]), float64(t.lockWait))
			*lines = append(*lines, fmt.Sprintf("lock class #%d by virtual wait: %s (%.4f of %d ns)", i+1, classes[i], share, t.lockWait))
		}
		ms = append(ms, metric{fmt.Sprintf("lockprof.top%d.wait_share", i+1), "ratio", share, ""})
	}
	for _, c := range []struct{ name, unit string }{{"bytes_written", "B/op"}, {"bytes_read", "B/op"}, {"flushes", "count/op"}, {"fences", "count/op"}} {
		ms = append(ms, metric{"nvm." + c.name, c.unit, perOp(ctr("nvm." + c.name)), ""})
	}
	for _, c := range byteflow.Classes() {
		ms = append(ms, metric{"byteflow.issued." + c.String(), "B/op", perOp(float64(t.issued[c])), ""})
	}
	ms = append(ms,
		metric{"nvm.wa", "ratio", ratio(float64(t.media), float64(t.app)), "media over application bytes; 0 when none"},
		metric{"lsmdb.fs_vns_share", "ratio", ratio(extra["fs_ns"], extra["op_ns"]), "virtual time below lsmdb over op time"},
		metric{"lsmdb.flushes", "count/kop", perKop(extra["flushes"]), ""},
		metric{"lsmdb.compactions", "count/kop", perKop(extra["compactions"]), ""},
	)
	var cpuTotal float64
	for _, v := range cpuByGroup {
		cpuTotal += v
	}
	for _, g := range cpuGroupNames {
		ms = append(ms, metric{"cpu." + g + ".share", "ratio", ratio(cpuByGroup[g], cpuTotal), ""})
	}
	return append(ms,
		metric{"obs.cpu_overhead_x", "x", overhead, "traced over untraced cpu_us_per_op"},
		metric{"obs.vdelta_max", "ratio", vdelta, "largest relative change of a virtual end-to-end metric under tracing"},
	)
}
