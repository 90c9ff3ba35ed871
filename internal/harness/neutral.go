package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"zofs/internal/fxmark"
	"zofs/internal/lockprof"
	"zofs/internal/obsfs"
	"zofs/internal/pmemtrace"
	"zofs/internal/series"
	"zofs/internal/spans"
	"zofs/internal/sysfactory"
	"zofs/internal/telemetry"
)

// RunNeutral is the observer-neutrality gate. Observers read virtual clocks
// and never advance them, so every cell must come out bit-identical with
// all of them off and all of them on at once: telemetry, spans with
// worst-op exemplars, the windowed series, the lock profiler, the pmemtrace
// flight recorder and device byte-flow accounting. The cells are the ZoFS
// hot path (create, lookup, read4k) and the 1-thread FxMark DWOL and MWCL
// cells; each must agree on its integer op count and virtual nanoseconds.
func RunNeutral(w io.Writer, opts Options) error {
	// The cells keep the sizes of the experiments they come from: hotpath's
	// file count and fxmark-scale's measurement window (not the figure
	// window fill() would pick).
	if opts.TargetNS <= 0 {
		opts.TargetNS = 500_000
		if opts.Quick {
			opts.TargetNS = 250_000
		}
	}
	opts.fill()
	off, err := neutralCells(opts, false)
	if err != nil {
		return fmt.Errorf("neutral (observers off): %w", err)
	}
	on, err := neutralCells(opts, true)
	if err != nil {
		return fmt.Errorf("neutral (observers on): %w", err)
	}

	fmt.Fprintln(w, "Observer neutrality: every observer off vs all on (ops, virtual ns)")
	t := tw(w)
	fmt.Fprintln(t, "Cell\tOps\tVirtual ns off\tVirtual ns on\tIdentical")
	for _, c := range sortedCells(off) {
		fmt.Fprintf(t, "%s\t%d\t%d\t%d\t%v\n", c, off[c].Ops, off[c].VirtualNS, on[c].VirtualNS, off[c] == on[c])
	}
	if err := t.Flush(); err != nil {
		return err
	}
	if diffs := neutralDiff(off, on); len(diffs) > 0 {
		return fmt.Errorf("neutrality gate failed:\n  %s", strings.Join(diffs, "\n  "))
	}
	fmt.Fprintln(w, "neutrality gate: every cell bit-identical with all observers on")
	return nil
}

// neutralDiff returns one line per cell whose op count or virtual ns differ
// between the two runs.
func neutralDiff(off, on map[string]cellCost) []string {
	var diffs []string
	for _, c := range sortedCells(off) {
		if o := on[c]; o != off[c] {
			diffs = append(diffs, fmt.Sprintf("cell %s: observers off ops=%d vns=%d, on ops=%d vns=%d",
				c, off[c].Ops, off[c].VirtualNS, o.Ops, o.VirtualNS))
		}
	}
	return diffs
}

func sortedCells(m map[string]cellCost) []string {
	cells := make([]string, 0, len(m))
	for c := range m {
		cells = append(cells, c)
	}
	sort.Strings(cells)
	return cells
}

// neutralCells runs every gated cell on fresh ZoFS instances with every
// process-wide observer disabled or all of them enabled, restoring the
// caller's observers afterwards.
func neutralCells(opts Options, observe bool) (map[string]cellCost, error) {
	prevTel, prevTrace := telemetry.Active(), pmemtrace.Active()
	prevSpans, prevSeries, prevLock := spans.Active(), series.Active(), lockprof.Active()
	defer func() {
		telemetry.Install(prevTel)
		pmemtrace.Install(prevTrace)
		spans.Install(prevSpans)
		series.Install(prevSeries)
		lockprof.Install(prevLock)
		spans.OnSnapshot(nil) // installed by obsfs.Wrap; holds the cell's device
	}()
	var rec *telemetry.Recorder
	if observe {
		rec = telemetry.Enable()
		pmemtrace.Enable(pmemtrace.Config{})
		spans.Enable(spans.Config{ExemplarK: spans.DefaultExemplarK})
		series.Enable(series.Config{})
		lockprof.Enable(lockprof.Config{})
	} else {
		telemetry.Disable()
		pmemtrace.Disable()
		spans.Disable()
		series.Disable()
		lockprof.Disable()
	}
	instance := func() (*sysfactory.Instance, error) {
		in, err := sysfactory.ZoFS.New(opts.DeviceBytes)
		if err == nil && observe {
			in.Dev.EnableAccounting()
		}
		return in, err
	}

	in, err := instance()
	if err != nil {
		return nil, err
	}
	cells, err := hotpathRunOn(in, rec, hotpathFiles(opts))
	if err != nil {
		return nil, err
	}
	for _, wl := range []fxmark.Workload{fxmark.DWOL, fxmark.MWCL} {
		in, err := instance()
		if err != nil {
			return nil, err
		}
		env := &fxmark.Env{FS: obsfs.Wrap(in.FS, rec), Proc: in.Proc, SetConcurrency: in.SetConcurrency}
		r, err := fxmark.Run(env, wl, 1, opts.TargetNS)
		if err != nil {
			return nil, fmt.Errorf("%s 1T: %w", wl, err)
		}
		cells[string(wl)+" 1T"] = cellCost{Ops: r.Ops, VirtualNS: r.VirtualNS}
	}
	return cells, nil
}
