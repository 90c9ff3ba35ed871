package nvm

import (
	"testing"

	"zofs/internal/byteflow"
	"zofs/internal/pmemtrace"
	"zofs/internal/simclock"
	"zofs/internal/spans"
	"zofs/internal/telemetry"
)

// TestDeviceSinksAgree drives every access method inside one root span with
// telemetry, spans, byte-flow accounting and the flight recorder all on,
// and requires the sinks to agree: the same bytes read and written, flushes
// and fences, and exactly one recorder event per persisting access. A
// clocked Load64 is an 8-byte read everywhere; a clock-less one (a cache
// hit) and a failed CAS count nowhere.
func TestDeviceSinksAgree(t *testing.T) {
	rec := telemetry.Enable()
	defer telemetry.Disable()
	tr := pmemtrace.Enable(pmemtrace.Config{})
	defer pmemtrace.Disable()
	col := spans.NewCollector(spans.Config{})

	d := New(Config{Size: 1 << 20, TrackPersistence: true})
	d.EnableAccounting()
	clk := simclock.NewClock()
	ctx := spans.NewThreadCtx(col, 1)
	clk.SetBill(ctx)
	ctx.Begin(telemetry.OpWrite, 0, clk.Now())

	buf := make([]byte, 200)
	persisting := 0
	d.Write(clk, 0, buf)
	d.Flush(clk, 0, int64(len(buf)))
	persisting++
	d.WriteNT(clk, 4096, buf)
	d.WriteNTClass(clk, byteflow.ClassData, 8192, buf)
	persisting += 2
	view, commit, ok := d.WriteView(clk, 12288, 64)
	if !ok {
		t.Fatal("WriteView refused an in-chunk range")
	}
	copy(view, buf)
	commit()
	persisting++
	d.Read(clk, 0, buf)
	if _, ok := d.ReadView(clk, 4096, 64); !ok {
		t.Fatal("ReadView refused an in-chunk range")
	}
	d.Load64(clk, 256)
	d.Load64(nil, 256)
	d.Fence(clk)
	d.Zero(clk, 16384, 4096)
	d.ZeroClass(clk, byteflow.ClassAlloc, 20480, 128)
	d.Store64(clk, 256, 1)
	d.Store64Class(clk, byteflow.ClassAlloc, 264, 2)
	persisting += 4
	if !d.CAS64(clk, 272, 0, 3) {
		t.Fatal("CAS on a zero word failed")
	}
	persisting++
	if d.CAS64(clk, 272, 0, 4) {
		t.Fatal("CAS against a stale value succeeded")
	}
	ctx.End(clk.Now())

	roots := col.Roots()
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}
	root := roots[0]
	c := rec.Snapshot().Counters
	for _, p := range []struct {
		name      string
		tel, span int64
	}{
		{"bytes_written", c["nvm.bytes_written"], root.BytesWritten},
		{"bytes_read", c["nvm.bytes_read"], root.BytesRead},
		{"flushes", c["nvm.flushes"], root.Flushes},
		{"fences", c["nvm.fences"], root.Fences},
	} {
		if p.tel != p.span {
			t.Errorf("%s: telemetry %d, span %d", p.name, p.tel, p.span)
		}
	}
	// Read 200 + ReadView 64 + clocked Load64 8. Persisted: Flush 200,
	// WriteNT 2x200, WriteView 64, Zero 4096+128, Store64 2x8, CAS 8.
	// Fences: Flush, WriteNT x2, WriteView, Fence, Store64 x2, CAS.
	if root.BytesRead != 272 || root.BytesWritten != 4912 || root.Fences != 8 {
		t.Errorf("span read/written/fences = %d/%d/%d, want 272/4912/8",
			root.BytesRead, root.BytesWritten, root.Fences)
	}
	f := d.FlowSnapshot()
	if f.Fences != root.Fences || f.Flushes != root.Flushes {
		t.Errorf("byte flow fences/flushes = %d/%d, span %d/%d", f.Fences, f.Flushes, root.Fences, root.Flushes)
	}

	var persisted, other int
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case pmemtrace.KindNTStore, pmemtrace.KindStore64, pmemtrace.KindCAS, pmemtrace.KindZero, pmemtrace.KindFlush:
			persisted++
		default:
			other++
		}
	}
	if persisted != persisting {
		t.Errorf("%d persisting events, want one per persisting access (%d)", persisted, persisting)
	}
	if other != 2 { // the cached store and the bare fence
		t.Errorf("%d non-persisting events, want 2", other)
	}
}
