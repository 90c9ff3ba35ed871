package pmemtrace_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"zofs/internal/pmemtrace"
	"zofs/internal/simclock"
	"zofs/internal/spans"
	"zofs/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedStream is a deterministic event/op-span pair used by the export tests.
func fixedStream() ([]pmemtrace.Event, []telemetry.TraceEvent) {
	events := []pmemtrace.Event{
		{Seq: 1, TS: 1000, Kind: pmemtrace.KindStore, Off: 4096, Len: 64, TID: 1, Key: 2},
		{Seq: 2, TS: 2000, Kind: pmemtrace.KindFlush, Off: 4096, Len: 64, TID: 1, Key: 2},
		{Seq: 3, TS: 2500, Kind: pmemtrace.KindNTStore, Off: 8192, Len: 256, TID: 2, Key: 3},
		{Seq: 4, TS: 3000, Kind: pmemtrace.KindFence, TID: 2, Key: -1},
		{Seq: 5, TS: 3500, Kind: pmemtrace.KindStore64, Off: 8448, Len: 8, TID: 2, Key: 3},
		{Seq: 6, TS: 4000, Kind: pmemtrace.KindViolation, Off: 17, TID: 3, Key: 5, Cause: "PKRU write-disable"},
		{Seq: 7, TS: 4200, Kind: pmemtrace.KindStore, Off: 128, Len: 32, TID: 1, Key: -1},
		{Seq: 8, TS: 5000, Kind: pmemtrace.KindCrashInject, Len: 4, TID: -1, Key: -1},
		{Seq: 9, TS: 0, Kind: pmemtrace.KindCrash, Len: 1, TID: -1, Key: -1},
	}
	ops := []telemetry.TraceEvent{
		{TID: 1, Op: "zofs.append", Start: 900, Dur: 1200},
		{TID: 2, Op: "zofs.create", Start: 2400, Dur: 1200},
	}
	return events, ops
}

// TestChromeGolden pins the Chrome exporter's exact output for a
// flight-recorder log: telemetry op spans as childless roots, device events
// as instants and the dirty-line counter track, with stable field ordering
// and a well-formed JSON array.
func TestChromeGolden(t *testing.T) {
	events, ops := fixedStream()
	var buf bytes.Buffer
	if err := spans.WriteChromeTrace(&buf, spans.Timeline{Roots: spans.TraceRoots(ops), Events: events}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome export drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	var arr []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("export is not a valid JSON array: %v", err)
	}
	if len(arr) == 0 {
		t.Fatal("export array is empty")
	}
	for i, ev := range arr {
		for _, field := range []string{"name", "cat", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing %q: %v", i, field, ev)
			}
		}
	}
}

// TestChromeEmpty checks the zero-event corner is still a valid array.
func TestChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := spans.WriteChromeTrace(&buf, spans.Timeline{}); err != nil {
		t.Fatal(err)
	}
	var arr []any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil || len(arr) != 0 {
		t.Fatalf("empty export = %q, want empty JSON array", buf.String())
	}
}

// TestJSONLRoundTrip spills a live recording to JSONL and reloads it.
func TestJSONLRoundTrip(t *testing.T) {
	var spill bytes.Buffer
	r := pmemtrace.New(pmemtrace.Config{RingCap: 16, Spill: &spill})
	clk := simclock.NewClock()
	clk.SetTag(pmemtrace.PackTag(9, 4))
	clk.Advance(111)
	r.Record(7, clk, pmemtrace.KindStore, 4096, 128)
	clk.Advance(10)
	r.Record(7, clk, pmemtrace.KindFlush, 4096, 128)
	r.RecordViolation(200, 9, 33, 5, "page not mapped")
	if err := r.FlushSpill(); err != nil {
		t.Fatal(err)
	}
	ops := []telemetry.TraceEvent{{TID: 9, Op: "zofs.write", Start: 100, Dur: 50}}
	if err := pmemtrace.WriteSpansJSONL(&spill, ops); err != nil {
		t.Fatal(err)
	}

	gotEvents, gotSpans, err := pmemtrace.ReadJSONL(&spill)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotEvents, r.Events()) {
		t.Fatalf("events round-trip mismatch:\ngot  %+v\nwant %+v", gotEvents, r.Events())
	}
	if !reflect.DeepEqual(gotSpans, ops) {
		t.Fatalf("spans round-trip mismatch:\ngot  %+v\nwant %+v", gotSpans, ops)
	}
}

// TestWriteJSONLWhole exercises the one-shot writer used by tools that hold
// the whole stream in memory.
func TestWriteJSONLWhole(t *testing.T) {
	events, ops := fixedStream()
	var buf bytes.Buffer
	if err := pmemtrace.WriteJSONL(&buf, events, ops); err != nil {
		t.Fatal(err)
	}
	gotEvents, gotSpans, err := pmemtrace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotEvents, events) {
		t.Fatalf("events mismatch:\ngot  %+v\nwant %+v", gotEvents, events)
	}
	if !reflect.DeepEqual(gotSpans, ops) {
		t.Fatalf("spans mismatch:\ngot  %+v\nwant %+v", gotSpans, ops)
	}
}
