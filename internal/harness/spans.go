package harness

import (
	"fmt"
	"io"
	"math"
	"strings"

	"zofs/internal/spans"
	"zofs/internal/sysfactory"
)

// RunSpans is the causal-span attribution gate. It runs the hot-path cells
// (create / lookup / read4k on default ZoFS) with spans and byte-flow
// accounting enabled and asserts what the span layer promises beyond
// neutrality (which RunNeutral gates for every observer at once):
//
//  1. Exact attribution: for every op kind, the per-component nanoseconds
//     (media, flush/fence, lock wait, PKRU, memcpy, kernel, other) must sum
//     to the measured op latency within 1% — "other" is the accounted
//     residual, so a violation means a span was double-billed.
//  2. No span is left open or closed twice.
//  3. The OpenMetrics rendering of the collected snapshot must validate.
//
// The attribution breakdown is printed, making this the command-line answer
// to "where does an op's latency go".
func RunSpans(w io.Writer, opts Options) error {
	opts.fill()
	n := hotpathFiles(opts)

	prev := spans.Active()
	col := spans.Enable(spans.Config{})
	// Byte-flow accounting rides along: the obsfs wrap registers the
	// snapshot enricher, so the snapshot carries the byte-flow and space
	// panels, and the OpenMetrics validation below covers those series with
	// real data.
	in, err := sysfactory.ZoFS.New(opts.DeviceBytes)
	if err == nil {
		in.Dev.EnableAccounting()
		_, err = hotpathRunOn(in, nil, n)
	}
	snap := col.Snapshot()
	spans.Enrich(&snap)
	spans.OnSnapshot(nil)
	open := col.OpenRoots()
	spans.Install(prev)
	if err != nil {
		return fmt.Errorf("spans run: %w", err)
	}

	var failures []string
	// Attribution must be complete: components sum to measured latency.
	for op, ob := range snap.Ops {
		var sum int64
		for _, cs := range ob.Comp {
			sum += cs.SumNS
		}
		if ob.SumNS == 0 {
			continue
		}
		if dev := math.Abs(float64(sum-ob.SumNS)) / float64(ob.SumNS); dev > 0.01 {
			failures = append(failures, fmt.Sprintf("op %s: components sum to %d ns vs measured %d ns (%.2f%% off)", op, sum, ob.SumNS, dev*100))
		}
	}
	if open != 0 {
		failures = append(failures, fmt.Sprintf("%d spans left open after the run", open))
	}
	if dc := col.DoubleCloses(); dc != 0 {
		failures = append(failures, fmt.Sprintf("%d double-closed spans", dc))
	}

	var om strings.Builder
	if err := spans.WriteOpenMetrics(&om, snap); err != nil {
		return err
	}
	if err := spans.ValidateOpenMetrics(strings.NewReader(om.String())); err != nil {
		failures = append(failures, fmt.Sprintf("OpenMetrics validation: %v", err))
	}

	fmt.Fprintf(w, "Latency attribution: ZoFS hot path, %d files\n", n)
	if err := snap.WriteText(w); err != nil {
		return err
	}
	if len(failures) > 0 {
		return fmt.Errorf("spans gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Fprintln(w, "\nspans gate: attribution and OpenMetrics checks passed")
	return nil
}
