// Package series is the tail observatory's windowed metrics pipeline: it
// buckets every observed operation into fixed-width virtual-time windows,
// each carrying per-op-kind counters and log-bucket latency histograms in
// the exact telemetry geometry — so p50/p95/p99/p999 are queryable per
// window (warmup vs steady state, contention storms, quarantine transitions
// as phenomena-in-time) and windows are *exactly* mergeable: summing the
// bucket vectors of every window of a run reproduces the cumulative
// telemetry histogram bit-for-bit (the merge-exactness gate in the `series`
// experiment).
//
// On top of the windows ride SLO objectives — a latency threshold and a
// target good-fraction per op kind — with windowed error-budget burn-rate
// accounting, and the adaptive worst-op exemplar thresholds pushed into the
// span collector (trailing-window p99 per op kind, so exemplar capture
// tracks the tail as it moves).
//
// Like every observability layer here, the collector only reads clocks: a
// run's virtual timeline is bit-identical with series collection on or off
// (the `neutral` gate experiment).
package series

import (
	"sort"
	"sync"
	"sync/atomic"

	"zofs/internal/spans"
	"zofs/internal/telemetry"
)

// DefaultWindowNS is the default window width (1ms of virtual time).
const DefaultWindowNS = 1_000_000

// DefaultMaxWindows bounds the retained window map; older windows fold into
// the spill aggregate (merge-exactness is preserved, per-window resolution
// for the evicted prefix is not).
const DefaultMaxWindows = 1024

// defaultTrailing is how many trailing windows feed the adaptive exemplar
// threshold.
const defaultTrailing = 4

// thresholdEvery is the per-op observation cadence of adaptive-threshold
// recomputation.
const thresholdEvery = 256

// SLO is one latency objective: at least Target fraction of Op's operations
// complete within ThresholdNS.
type SLO struct {
	Op          telemetry.Op
	ThresholdNS int64
	Target      float64 // good fraction, e.g. 0.999; must be < 1
}

// Config parameterizes a Collector.
type Config struct {
	// WindowNS is the virtual-time window width (default DefaultWindowNS).
	WindowNS int64
	// MaxWindows bounds retained windows (default DefaultMaxWindows).
	MaxWindows int
	// Trailing is the adaptive-threshold window count (default 4).
	Trailing int
	// SLOs are the initial objectives; more can be set at runtime.
	SLOs []SLO
}

// opWin is one op kind's aggregate within one window.
type opWin struct {
	count   int64
	sumNS   int64
	buckets [telemetry.HistBuckets]int64
	// sloTotal/sloBad track the objective configured for the op at observe
	// time (zero when none is set).
	sloTotal int64
	sloBad   int64
}

// window is one fixed-width virtual-time window.
type window struct {
	ops [telemetry.NumOps]*opWin
}

func (w *window) op(i telemetry.Op) *opWin {
	if w.ops[i] == nil {
		w.ops[i] = &opWin{}
	}
	return w.ops[i]
}

// merge folds o into the window's op slot (eviction, merged views).
func (w *window) merge(i telemetry.Op, o *opWin) {
	dst := w.op(i)
	dst.count += o.count
	dst.sumNS += o.sumNS
	dst.sloTotal += o.sloTotal
	dst.sloBad += o.sloBad
	for b, v := range o.buckets {
		dst.buckets[b] += v
	}
}

type sloCfg struct {
	set         bool
	thresholdNS int64
	target      float64
}

// Collector aggregates observations into virtual-time windows. Safe for
// concurrent use by many simulated threads.
type Collector struct {
	widthNS    int64
	maxWindows int
	trailing   int

	mu       sync.Mutex
	win      map[int64]*window
	spill    window // evicted windows, folded (keeps merges exact)
	spilled  int64  // distinct windows folded into spill
	total    int64  // observations ever
	slo      [telemetry.NumOps]sloCfg
	obsCount [telemetry.NumOps]int64
	// threshold is the last adaptive exemplar threshold pushed per op kind
	// (trailing-window p99), kept for introspection and the .prom export.
	threshold [telemetry.NumOps]int64
}

// NewCollector returns an empty collector.
func NewCollector(cfg Config) *Collector {
	c := &Collector{
		widthNS:    cfg.WindowNS,
		maxWindows: cfg.MaxWindows,
		trailing:   cfg.Trailing,
		win:        map[int64]*window{},
	}
	if c.widthNS <= 0 {
		c.widthNS = DefaultWindowNS
	}
	if c.maxWindows <= 0 {
		c.maxWindows = DefaultMaxWindows
	}
	if c.trailing <= 0 {
		c.trailing = defaultTrailing
	}
	for _, s := range cfg.SLOs {
		c.SetSLO(s.Op, s.ThresholdNS, s.Target)
	}
	return c
}

// active is the process-wide collector; nil means series collection is off
// (the default) — the same enablement pattern as telemetry and spans.
var active atomic.Pointer[Collector]

// Enable installs (and returns) a fresh process-wide collector.
func Enable(cfg Config) *Collector {
	c := NewCollector(cfg)
	active.Store(c)
	return c
}

// Install makes c the process-wide collector (nil is equivalent to Disable).
func Install(c *Collector) { active.Store(c) }

// Disable removes the process-wide collector.
func Disable() { active.Store(nil) }

// Active returns the current process-wide collector, or nil when disabled.
func Active() *Collector { return active.Load() }

// ObserveActive records one finished operation against the process-wide
// collector, if any. It is the hook the two op-observation sites
// (obsfs.begin, fslibs.traceAt) call next to telemetry's Observe, so the
// windowed stream and the cumulative histograms see the identical sequence.
func ObserveActive(op telemetry.Op, startNS, durNS int64) {
	if c := active.Load(); c != nil {
		c.Observe(op, startNS, durNS)
	}
}

// Observe records one finished operation: it lands in the window containing
// its start time, in the same histogram bucket the telemetry recorder uses.
func (c *Collector) Observe(op telemetry.Op, startNS, durNS int64) {
	if c == nil {
		return
	}
	wi := startNS / c.widthNS
	if wi < 0 {
		wi = 0
	}
	c.mu.Lock()
	w := c.win[wi]
	if w == nil {
		if len(c.win) >= c.maxWindows {
			c.evictOldestLocked()
		}
		w = &window{}
		c.win[wi] = w
	}
	ow := w.op(op)
	ow.count++
	ow.sumNS += durNS
	ow.buckets[telemetry.BucketOf(durNS)]++
	if s := &c.slo[op]; s.set {
		ow.sloTotal++
		if durNS > s.thresholdNS {
			ow.sloBad++
		}
	}
	c.total++
	c.obsCount[op]++
	if c.obsCount[op]%thresholdEvery == 1 {
		c.pushThresholdLocked(op, wi)
	}
	c.mu.Unlock()
}

// evictOldestLocked folds the lowest-index window into the spill aggregate.
func (c *Collector) evictOldestLocked() {
	var oldest int64
	first := true
	for i := range c.win {
		if first || i < oldest {
			oldest, first = i, false
		}
	}
	if first {
		return
	}
	w := c.win[oldest]
	for i := range w.ops {
		if w.ops[i] != nil {
			c.spill.merge(telemetry.Op(i), w.ops[i])
		}
	}
	delete(c.win, oldest)
	c.spilled++
}

// pushThresholdLocked recomputes the op's trailing-window p99 and pushes it
// into the span collector as the adaptive exemplar-capture threshold.
func (c *Collector) pushThresholdLocked(op telemetry.Op, cur int64) {
	var count int64
	var buckets [telemetry.HistBuckets]int64
	for wi := cur - int64(c.trailing) + 1; wi <= cur; wi++ {
		w := c.win[wi]
		if w == nil || w.ops[op] == nil {
			continue
		}
		ow := w.ops[op]
		count += ow.count
		for b, v := range ow.buckets {
			buckets[b] += v
		}
	}
	if count == 0 {
		return
	}
	p99 := telemetry.Quantile(buckets[:], count, 0.99)
	c.threshold[op] = p99
	if sc := spans.Active(); sc != nil {
		sc.SetExemplarThreshold(op, p99)
	}
}

// SetSLO installs (or replaces) the objective for one op kind; it applies to
// observations from now on. A thresholdNS <= 0 clears the objective. Target
// is clamped to [0, 0.999999] — a target of exactly 1 would make the error
// budget zero and every burn rate infinite.
func (c *Collector) SetSLO(op telemetry.Op, thresholdNS int64, target float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if thresholdNS <= 0 {
		c.slo[op] = sloCfg{}
		return
	}
	if target < 0 {
		target = 0
	}
	if target > 0.999999 {
		target = 0.999999
	}
	c.slo[op] = sloCfg{set: true, thresholdNS: thresholdNS, target: target}
}

// WidthNS returns the window width.
func (c *Collector) WidthNS() int64 {
	if c == nil {
		return 0
	}
	return c.widthNS
}

// Total returns the number of observations ever recorded.
func (c *Collector) Total() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Threshold returns the last adaptive exemplar threshold computed for op.
func (c *Collector) Threshold(op telemetry.Op) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.threshold[op]
}

// Reset zeroes every window, the spill aggregate and the counters (SLO
// objectives are kept).
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.win = map[int64]*window{}
	c.spill = window{}
	c.spilled = 0
	c.total = 0
	c.obsCount = [telemetry.NumOps]int64{}
	c.threshold = [telemetry.NumOps]int64{}
}

// OpWindow is one op kind's published aggregate within one window (or the
// merged whole-run view).
type OpWindow struct {
	Count    int64   `json:"count"`
	SumNS    int64   `json:"sum_ns"`
	MeanNS   int64   `json:"mean_ns"`
	P50NS    int64   `json:"p50_ns"`
	P95NS    int64   `json:"p95_ns"`
	P99NS    int64   `json:"p99_ns"`
	P999NS   int64   `json:"p999_ns"`
	SLOTotal int64   `json:"slo_total,omitempty"`
	SLOBad   int64   `json:"slo_bad,omitempty"`
	SLOBurn  float64 `json:"slo_burn,omitempty"`

	Buckets []int64 `json:"-"` // exact bucket vector; in-process consumers only
}

// Window is one published fixed-width window.
type Window struct {
	Index   int64               `json:"window"`
	StartNS int64               `json:"start_ns"`
	WidthNS int64               `json:"width_ns"`
	Ops     map[string]OpWindow `json:"ops"`
}

// SLOStatus is one objective's cumulative burn accounting.
type SLOStatus struct {
	Op          string  `json:"op"`
	ThresholdNS int64   `json:"threshold_ns"`
	Target      float64 `json:"target"`
	Total       int64   `json:"total"`
	Bad         int64   `json:"bad"`
	// Burn is the cumulative error-budget burn rate: the observed bad
	// fraction divided by the budgeted bad fraction (1-target). Burn 1.0
	// consumes the budget exactly; >1 is over-budget.
	Burn float64 `json:"burn"`
	// LastBurn is the burn rate of the latest window carrying observations
	// of this op — the instantaneous signal zofs-obs top's timeline shows.
	LastBurn float64 `json:"last_burn"`
}

func (c *Collector) snapOpWin(op telemetry.Op, ow *opWin) OpWindow {
	o := OpWindow{
		Count:    ow.count,
		SumNS:    ow.sumNS,
		SLOTotal: ow.sloTotal,
		SLOBad:   ow.sloBad,
		Buckets:  append([]int64(nil), ow.buckets[:]...),
	}
	if o.Count > 0 {
		o.MeanNS = o.SumNS / o.Count
		o.P50NS = telemetry.Quantile(o.Buckets, o.Count, 0.50)
		o.P95NS = telemetry.Quantile(o.Buckets, o.Count, 0.95)
		o.P99NS = telemetry.Quantile(o.Buckets, o.Count, 0.99)
		o.P999NS = telemetry.Quantile(o.Buckets, o.Count, 0.999)
	}
	if s := c.slo[op]; s.set && o.SLOTotal > 0 {
		o.SLOBurn = burnRate(o.SLOBad, o.SLOTotal, s.target)
	}
	return o
}

// burnRate is badFraction / budgetFraction.
func burnRate(bad, total int64, target float64) float64 {
	if total <= 0 {
		return 0
	}
	budget := 1 - target
	return float64(bad) / float64(total) / budget
}

// Windows returns the retained windows in ascending virtual-time order.
func (c *Collector) Windows() []Window {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := make([]int64, 0, len(c.win))
	for i := range c.win {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	out := make([]Window, 0, len(idx))
	for _, i := range idx {
		w := c.win[i]
		ws := Window{Index: i, StartNS: i * c.widthNS, WidthNS: c.widthNS, Ops: map[string]OpWindow{}}
		for oi := range w.ops {
			if w.ops[oi] == nil || w.ops[oi].count == 0 {
				continue
			}
			ws.Ops[telemetry.Op(oi).Name()] = c.snapOpWin(telemetry.Op(oi), w.ops[oi])
		}
		if len(ws.Ops) > 0 {
			out = append(out, ws)
		}
	}
	return out
}

// Merged returns the whole-run per-op aggregates: the spill plus every
// retained window, folded. Merging is exact — the returned bucket vectors
// equal the cumulative telemetry histograms bit-for-bit when both observed
// the same stream.
func (c *Collector) Merged() map[string]OpWindow {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var m window
	for i := range c.spill.ops {
		if c.spill.ops[i] != nil {
			m.merge(telemetry.Op(i), c.spill.ops[i])
		}
	}
	for _, w := range c.win {
		for i := range w.ops {
			if w.ops[i] != nil {
				m.merge(telemetry.Op(i), w.ops[i])
			}
		}
	}
	out := map[string]OpWindow{}
	for i := range m.ops {
		if m.ops[i] == nil || m.ops[i].count == 0 {
			continue
		}
		out[telemetry.Op(i).Name()] = c.snapOpWin(telemetry.Op(i), m.ops[i])
	}
	return out
}

// SpilledWindows reports how many windows were evicted into the spill
// aggregate (0 means every window is still individually queryable).
func (c *Collector) SpilledWindows() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spilled
}

// SLOs returns the burn accounting of every configured objective, in op
// order.
func (c *Collector) SLOs() []SLOStatus {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []SLOStatus
	for oi := range c.slo {
		s := c.slo[oi]
		if !s.set {
			continue
		}
		st := SLOStatus{
			Op:          telemetry.Op(oi).Name(),
			ThresholdNS: s.thresholdNS,
			Target:      s.target,
		}
		if c.spill.ops[oi] != nil {
			st.Total += c.spill.ops[oi].sloTotal
			st.Bad += c.spill.ops[oi].sloBad
		}
		lastIdx := int64(-1)
		var lastBad, lastTotal int64
		for wi, w := range c.win {
			ow := w.ops[oi]
			if ow == nil || ow.sloTotal == 0 {
				continue
			}
			st.Total += ow.sloTotal
			st.Bad += ow.sloBad
			if wi > lastIdx {
				lastIdx, lastBad, lastTotal = wi, ow.sloBad, ow.sloTotal
			}
		}
		st.Burn = burnRate(st.Bad, st.Total, s.target)
		st.LastBurn = burnRate(lastBad, lastTotal, s.target)
		out = append(out, st)
	}
	return out
}
