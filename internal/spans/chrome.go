package spans

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"

	"zofs/internal/lockprof"
	"zofs/internal/pmemtrace"
	"zofs/internal/telemetry"
)

// The Chrome trace-event export (chrome://tracing, Perfetto): root spans
// render as complete ("X") events carrying their component breakdown, child
// spans nest inside them on the same thread track, lock waits and worst-op
// exemplars add slices on their thread's track, window boundaries add global
// instants, and pmemtrace device events interleave as instant ("i") events
// with a dirty-line counter ("C") track — so a flush stall on the timeline
// sits visually inside the op that caused it. Structs marshal with fixed
// field order and maps with sorted keys, keeping the exporter
// byte-deterministic for a given input (golden-file tested).

type chromeArgs struct {
	Comp         map[string]int64 `json:"comp,omitempty"`
	PathHash     string           `json:"path_hash,omitempty"`
	PKey         *int16           `json:"pkey,omitempty"`
	BytesRead    int64            `json:"nvm_bytes_read,omitempty"`
	BytesWritten int64            `json:"nvm_bytes_written,omitempty"`
	Flushes      int64            `json:"flushes,omitempty"`
	Fences       int64            `json:"fences,omitempty"`
	Aborted      bool             `json:"aborted,omitempty"`
	Detail       string           `json:"detail,omitempty"`
	Seq          uint64           `json:"seq,omitempty"`
	Off          *int64           `json:"off,omitempty"`
	Len          *int64           `json:"len,omitempty"`
	Key          *int16           `json:"key,omitempty"`
	Cause        string           `json:"cause,omitempty"`
	Dirty        *int64           `json:"dirty,omitempty"`
}

type chromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat"`
	Ph   string      `json:"ph"`
	TS   float64     `json:"ts"` // microseconds
	Dur  *float64    `json:"dur,omitempty"`
	PID  int         `json:"pid"`
	TID  int32       `json:"tid"`
	S    string      `json:"s,omitempty"` // instant-event scope
	Args *chromeArgs `json:"args,omitempty"`
}

const chromePID = 1

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// WindowMark is one virtual-time series window boundary to overlay on the
// timeline. The spans package cannot see internal/series (series feeds
// thresholds into spans), so callers convert series windows to these plain
// marks.
type WindowMark struct {
	Index   int64
	StartNS int64
	Ops     int64
}

// Timeline is everything the Chrome exporter places on one virtual-time
// axis. Any field may be empty.
type Timeline struct {
	Roots     []Root
	Events    []pmemtrace.Event
	Waits     []lockprof.BlockedInterval
	Windows   []WindowMark
	Exemplars []Exemplar
}

// TraceRoots converts telemetry op-trace spans (a pmemtrace log's op
// records) into childless roots for the Chrome exporter.
func TraceRoots(ts []telemetry.TraceEvent) []Root {
	roots := make([]Root, len(ts))
	for i, t := range ts {
		roots[i] = Root{Op: t.Op, TID: t.TID, PKey: -1, Start: t.Start, Dur: t.Dur}
	}
	return roots
}

// WriteChromeTrace renders tl as a Chrome trace-event JSON array: root spans
// with their children, then lock waits, window marks, exemplars and device
// events. Events without arguments omit "args".
func WriteChromeTrace(w io.Writer, tl Timeline) error {
	bw := bufio.NewWriter(w)
	first := true
	emit := func(ev chromeEvent) error {
		if ev.Args != nil && reflect.ValueOf(*ev.Args).IsZero() {
			ev.Args = nil
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ",\n  "
		if first {
			sep = "[\n  "
			first = false
		}
		if _, err := bw.WriteString(sep); err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}
	compArgs := func(comp Breakdown) map[string]int64 {
		var m map[string]int64
		for i, v := range comp {
			if v > 0 {
				if m == nil {
					m = map[string]int64{}
				}
				m[Component(i).Name()] = v
			}
		}
		return m
	}

	ordered := append([]Root(nil), tl.Roots...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Start != ordered[j].Start {
			return ordered[i].Start < ordered[j].Start
		}
		return ordered[i].TID < ordered[j].TID
	})
	for _, r := range ordered {
		dur := usec(r.Dur)
		args := &chromeArgs{
			Comp:         compArgs(r.Comp),
			BytesRead:    r.BytesRead,
			BytesWritten: r.BytesWritten,
			Flushes:      r.Flushes,
			Fences:       r.Fences,
			Aborted:      r.Aborted,
		}
		if r.PathHash != 0 {
			args.PathHash = fmt.Sprintf("%016x", r.PathHash)
		}
		if r.PKey >= 0 {
			k := r.PKey
			args.PKey = &k
		}
		if err := emit(chromeEvent{
			Name: r.Op, Cat: "fsop", Ph: "X",
			TS: usec(r.Start), Dur: &dur,
			PID: chromePID, TID: int32(r.TID), Args: args,
		}); err != nil {
			return err
		}
		for _, ch := range r.Children {
			ce := chromeEvent{
				Name: ch.Name, Cat: "span", PID: chromePID, TID: int32(r.TID),
				Args: &chromeArgs{Detail: ch.Detail},
			}
			if ch.Start < 0 {
				// Unplaced annotation (e.g. the violation that aborted the
				// op): an instant at the root's end.
				ce.Ph, ce.S, ce.TS = "i", "t", usec(r.Start+r.Dur)
			} else {
				d := usec(ch.Dur)
				ce.Ph, ce.TS, ce.Dur = "X", usec(ch.Start), &d
			}
			if err := emit(ce); err != nil {
				return err
			}
		}
	}

	// Lock waits: each blocked interval is a "lockwait" slice named
	// wait:<lock> on its thread's track, inside the op that incurred it,
	// with the blamed holder in its detail.
	lanes := append([]lockprof.BlockedInterval(nil), tl.Waits...)
	sort.SliceStable(lanes, func(i, j int) bool {
		if lanes[i].StartNS != lanes[j].StartNS {
			return lanes[i].StartNS < lanes[j].StartNS
		}
		return lanes[i].TID < lanes[j].TID
	})
	for _, b := range lanes {
		d := usec(b.DurNS)
		if err := emit(chromeEvent{
			Name: "wait:" + b.Lock, Cat: "lockwait", Ph: "X",
			TS: usec(b.StartNS), Dur: &d,
			PID: chromePID, TID: int32(b.TID),
			Args: &chromeArgs{Detail: fmt.Sprintf("blocked by tid %d", b.HolderTID)},
		}); err != nil {
			return err
		}
	}

	// Series window boundaries are global instants on the device track;
	// worst-op exemplars are "exemplar" slices on their thread's track so
	// the captured tail op stands out against the ordinary fsop lane.
	wm := append([]WindowMark(nil), tl.Windows...)
	sort.SliceStable(wm, func(i, j int) bool { return wm[i].StartNS < wm[j].StartNS })
	for _, m := range wm {
		if err := emit(chromeEvent{
			Name: fmt.Sprintf("window %d", m.Index), Cat: "series", Ph: "i",
			TS: usec(m.StartNS), PID: chromePID, TID: 0, S: "g",
			Args: &chromeArgs{Detail: fmt.Sprintf("%d ops", m.Ops)},
		}); err != nil {
			return err
		}
	}
	exs := append([]Exemplar(nil), tl.Exemplars...)
	sort.SliceStable(exs, func(i, j int) bool {
		if exs[i].Root.Start != exs[j].Root.Start {
			return exs[i].Root.Start < exs[j].Root.Start
		}
		return exs[i].Root.TID < exs[j].Root.TID
	})
	for _, e := range exs {
		d := usec(e.Root.Dur)
		if err := emit(chromeEvent{
			Name: "worst:" + e.Root.Op, Cat: "exemplar", Ph: "X",
			TS: usec(e.Root.Start), Dur: &d,
			PID: chromePID, TID: int32(e.Root.TID),
			Args: &chromeArgs{
				Comp: compArgs(e.Root.Comp),
				Detail: fmt.Sprintf("threshold %d ns, %d blamed locks, %d device events",
					e.ThresholdNS, len(e.Locks), len(e.Events)),
			},
		}); err != nil {
			return err
		}
	}

	// Device events, each followed by a dirty_lines counter sample whenever
	// the count of stored-but-unpersisted lines changes (and at every crash),
	// so lost-update windows show as a non-zero sawtooth. The unknown-origin
	// thread id renders as 0, the device track.
	dirty := pmemtrace.DirtyLines{}
	lastDirty := -1
	for _, ev := range tl.Events {
		tid := ev.TID
		if tid < 0 {
			tid = 0
		}
		ce := chromeEvent{
			Name: ev.Kind.String(), Cat: "nvm", Ph: "i",
			TS: usec(ev.TS), PID: chromePID, TID: tid, S: "t",
			Args: &chromeArgs{Seq: ev.Seq},
		}
		switch ev.Kind {
		case pmemtrace.KindFence, pmemtrace.KindCrash, pmemtrace.KindCrashInject:
			// No meaningful range.
		case pmemtrace.KindViolation:
			page := ev.Off
			ce.Args.Off = &page
			ce.Args.Cause = ev.Cause
			ce.S = "g" // faults are worth seeing across all tracks
		default:
			off, ln := ev.Off, ev.Len
			ce.Args.Off = &off
			ce.Args.Len = &ln
		}
		if ev.Key >= 0 {
			k := ev.Key
			ce.Args.Key = &k
		}
		if err := emit(ce); err != nil {
			return err
		}

		before := len(dirty)
		dirty.Apply(ev)
		if after := len(dirty); after != before || (ev.Kind == pmemtrace.KindCrash && lastDirty != 0) {
			n := int64(after)
			if err := emit(chromeEvent{
				Name: "dirty_lines", Cat: "nvm", Ph: "C",
				TS: usec(ev.TS), PID: chromePID, TID: 0,
				Args: &chromeArgs{Dirty: &n},
			}); err != nil {
				return err
			}
			lastDirty = after
		}
	}

	if first {
		if _, err := bw.WriteString("[]\n"); err != nil {
			return err
		}
		return bw.Flush()
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
