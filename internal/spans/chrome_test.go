package spans

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"zofs/internal/lockprof"
	"zofs/internal/pmemtrace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedMerge is a deterministic root/device-event pair: two op spans with
// children (one aborted by an MPK violation), interleaved device events.
func fixedMerge() ([]Root, []pmemtrace.Event) {
	roots := []Root{
		{
			Op: "create", TID: 1, PathHash: PathHash("/hot/f-000001"), PKey: 3,
			Start: 1000, Dur: 900,
			Comp:         Breakdown{CompMedia: 400, CompFlush: 100, CompLock: 50, CompOther: 350},
			BytesWritten: 4096, Flushes: 2, Fences: 1,
			Children: []Child{
				{Name: "fslib.dispatch", Start: 1010, Dur: 30},
				{Name: "kernfs.coffer_enlarge", Start: 1200, Dur: 250},
			},
		},
		{
			Op: "write", TID: 2, PKey: -1,
			Start: 1500, Dur: 300,
			Comp:    Breakdown{CompMedia: 120, CompPKRU: 24, CompOther: 156},
			Aborted: true,
			Children: []Child{
				{Name: "mpk_violation", Start: -1, Detail: "PKRU write-disable"},
			},
		},
	}
	events := []pmemtrace.Event{
		{Seq: 1, TS: 1250, Kind: pmemtrace.KindNTStore, Off: 8192, Len: 256, TID: 1, Key: 3},
		{Seq: 2, TS: 1300, Kind: pmemtrace.KindFlush, Off: 8192, Len: 64, TID: 1, Key: 3},
		{Seq: 3, TS: 1350, Kind: pmemtrace.KindFence, TID: 1, Key: -1},
		{Seq: 4, TS: 1700, Kind: pmemtrace.KindViolation, Off: 17, TID: 2, Key: 5, Cause: "PKRU write-disable"},
	}
	return roots, events
}

// TestMergedChromeGolden pins the merged exporter's exact bytes: stable
// field order, root spans as slices with nested children, device events as
// instants on the same timeline.
func TestMergedChromeGolden(t *testing.T) {
	roots, events := fixedMerge()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, Timeline{Roots: roots, Events: events}); err != nil {
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
		t.Fatalf("merged chrome export drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}

	var arr []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("export is not a valid JSON array: %v", err)
	}
	// 2 roots + 3 children + 4 device events.
	if len(arr) != 9 {
		t.Fatalf("exported %d events, want 9", len(arr))
	}
	cats := map[string]int{}
	for i, ev := range arr {
		for _, field := range []string{"name", "cat", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing %q: %v", i, field, ev)
			}
		}
		cats[ev["cat"].(string)]++
	}
	if cats["fsop"] != 2 || cats["span"] != 3 || cats["nvm"] != 4 {
		t.Fatalf("category counts = %v", cats)
	}
}

// TestMergedChromeEmpty: both inputs empty still yields a valid array.
func TestMergedChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, Timeline{}); err != nil {
		t.Fatal(err)
	}
	var arr []any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil || len(arr) != 0 {
		t.Fatalf("empty export = %q, want empty JSON array", buf.String())
	}
}

// TestMergedChromeMarks: tail-observatory overlays render as "series"
// instants and "exemplar" slices, lock waits as "lockwait" slices, and the
// overlays add events without disturbing the ones the golden file pins.
func TestMergedChromeMarks(t *testing.T) {
	roots, events := fixedMerge()
	var plain bytes.Buffer
	if err := WriteChromeTrace(&plain, Timeline{Roots: roots, Events: events}); err != nil {
		t.Fatal(err)
	}

	tl := Timeline{
		Roots:  roots,
		Events: events,
		Waits:  []lockprof.BlockedInterval{{Lock: "kernfs.paths", TID: 2, HolderTID: 1, StartNS: 1550, DurNS: 40}},
		Windows: []WindowMark{
			{Index: 1, StartNS: 1000, Ops: 2},
			{Index: 0, StartNS: 0, Ops: 0},
		},
		Exemplars: []Exemplar{
			{Root: roots[0], ThresholdNS: 800},
		},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tl); err != nil {
		t.Fatal(err)
	}
	var arr, base []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("marked export is not a valid JSON array: %v", err)
	}
	if err := json.Unmarshal(plain.Bytes(), &base); err != nil {
		t.Fatal(err)
	}
	cats := map[string]int{}
	var sawWorst, sawWindow, sawWait bool
	for _, ev := range arr {
		cats[ev["cat"].(string)]++
		switch ev["name"].(string) {
		case "worst:create":
			sawWorst = true
		case "window 0":
			sawWindow = true
		case "wait:kernfs.paths":
			sawWait = true
		}
	}
	if cats["series"] != 2 || cats["exemplar"] != 1 || cats["lockwait"] != 1 {
		t.Fatalf("mark category counts = %v", cats)
	}
	if !sawWorst || !sawWindow || !sawWait {
		t.Fatalf("missing mark events (worst=%v window=%v wait=%v)", sawWorst, sawWindow, sawWait)
	}
	if len(arr) != len(base)+4 {
		t.Fatalf("overlays added %d events, want 4", len(arr)-len(base))
	}
}

// TestMergedChromeDeterministic: unsorted input roots render identically to
// sorted ones (the exporter orders by start time, then TID).
func TestMergedChromeDeterministic(t *testing.T) {
	roots, events := fixedMerge()
	rev := []Root{roots[1], roots[0]}
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, Timeline{Roots: roots, Events: events}); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, Timeline{Roots: rev, Events: events}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("export depends on input root order")
	}
}
