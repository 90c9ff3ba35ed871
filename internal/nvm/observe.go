package nvm

import (
	"zofs/internal/byteflow"
	"zofs/internal/perfmodel"
	"zofs/internal/pmemtrace"
	"zofs/internal/simclock"
	"zofs/internal/spans"
	"zofs/internal/telemetry"
)

// The write side of the observers. Every device access method charges the
// clock and then makes exactly one observe call with a typed access; the
// access kind's rule below derives what each sink sees — the spans
// component and byte/flush/fence counts, the telemetry counters, the
// byte-flow ledger's issued/persisted/fenced bookkeeping and the flight
// recorder's event — so the sinks agree on every access by construction.

// accessKind enumerates what the device reports to its observers.
type accessKind uint8

const (
	accRead        accessKind = iota // Read, ReadView, Load64 with a clock
	accStore                         // cached Write: dirty until flushed
	accNTStore                       // WriteNT, WriteView: persistent, fence folded in
	accStore64                       // Store64, Store64Class
	accCAS                           // successful CAS64
	accCASFailed                     // failed CAS64: charged, nothing stored
	accZero                          // Zero: persistent, no fence
	accFlush                         // Flush: clwb over the range plus a fence
	accFence                         // bare Fence
	accCrash                         // Crash: n = dirty lines at the failure
	accCrashInject                   // an armed fail point tripped: n = store count
	accWriters                       // SetConcurrency: n = concurrent writers
	accAppBytes                      // application payload credited by the FS layer
	numAccessKinds
)

// access is one device access as the observers see it: what was done to
// which bytes, on behalf of which ledger byte class, and the virtual time
// the device charged for it.
type access struct {
	kind accessKind
	cls  byteflow.Class
	off  int64
	n    int64
	ns   int64
}

// accessRule is what one access kind means to every sink. read and persist
// give the spans and telemetry byte counts (bytes read; bytes made
// persistent); write marks bytes issued as stores in the ledger, which also
// counts a store persisted at issue when persist is set.
type accessRule struct {
	comp    spans.Component
	read    bool
	write   bool
	persist bool
	flush   bool
	fence   bool
	traced  bool
	trace   pmemtrace.Kind
}

var accessRules = [numAccessKinds]accessRule{
	accRead:        {comp: spans.CompMedia, read: true},
	accStore:       {comp: spans.CompMedia, write: true, traced: true, trace: pmemtrace.KindStore},
	accNTStore:     {comp: spans.CompMedia, write: true, persist: true, fence: true, traced: true, trace: pmemtrace.KindNTStore},
	accStore64:     {comp: spans.CompMedia, write: true, persist: true, fence: true, traced: true, trace: pmemtrace.KindStore64},
	accCAS:         {comp: spans.CompMedia, write: true, persist: true, fence: true, traced: true, trace: pmemtrace.KindCAS},
	accCASFailed:   {comp: spans.CompMedia},
	accZero:        {comp: spans.CompMedia, write: true, persist: true, traced: true, trace: pmemtrace.KindZero},
	accFlush:       {comp: spans.CompFlush, persist: true, flush: true, fence: true, traced: true, trace: pmemtrace.KindFlush},
	accFence:       {comp: spans.CompFlush, fence: true, traced: true, trace: pmemtrace.KindFence},
	accCrash:       {traced: true, trace: pmemtrace.KindCrash},
	accCrashInject: {traced: true, trace: pmemtrace.KindCrashInject},
}

// observe reports one access to every sink. It is the device's only call
// into spans, telemetry, the byte-flow ledger and the flight recorder; with
// every sink off it returns after four loads.
func (d *Device) observe(clk *simclock.Clock, a access) {
	sp, l := spans.FromClock(clk), d.acct.Load()
	if sp == nil && d.rec == nil && l == nil && d.tr == nil {
		return
	}
	r := &accessRules[a.kind]
	var read, written, flushes, fences int64
	if r.read {
		read = a.n
	}
	if r.persist {
		written = a.n
	}
	if r.flush {
		flushes = 1
	}
	if r.fence {
		fences = 1
	}
	sp.BillNVM(r.comp, a.ns, read, written, flushes, fences)

	if rec := d.rec; rec != nil {
		switch {
		case r.read:
			rec.Inc(telemetry.CtrNVMReads)
		case r.write && r.persist:
			rec.Inc(telemetry.CtrNVMNTStores)
		case r.write:
			rec.Inc(telemetry.CtrNVMCachedWrites)
			if d.track {
				rec.Max(telemetry.GaugeDirtyLinesHWM, d.dirtyCount.Load())
			}
		}
		rec.Add(telemetry.CtrNVMBytesRead, read)
		rec.Add(telemetry.CtrNVMBytesWritten, written)
		rec.Add(telemetry.CtrNVMFlushes, flushes)
		rec.Add(telemetry.CtrNVMFences, fences)
		switch a.kind {
		case accZero:
			rec.Add(telemetry.CtrNVMZeroBytes, a.n)
		case accFlush:
			rec.Add(telemetry.CtrNVMCLWBLines, lines(a.off, a.n))
		case accWriters:
			rec.Max(telemetry.GaugeWriteConcurrency, a.n)
			if perfmodel.WriteBWDegradation(int(a.n)) < 1 {
				rec.Inc(telemetry.CtrNVMDegradeEvents)
			}
		}
	}

	if l != nil {
		cls := a.cls
		if int(cls) >= byteflow.NumClasses {
			cls = byteflow.ClassOther
		}
		if r.fence {
			l.fences.Add(1)
		}
		if r.write && a.n > 0 {
			l.total.Add(a.n)
			l.issued[cls].Add(a.n)
			if r.persist {
				l.nt[cls].Add(a.n)
			}
			for pg := a.off / PageSize; pg <= (a.off+a.n-1)/PageSize; pg++ {
				lo, hi := max(a.off, pg*PageSize), min(a.off+a.n, (pg+1)*PageSize)
				l.pageWrites[pg].Add(1)
				l.pageBytes[pg].Add(hi - lo)
			}
		}
		if r.flush {
			l.flush.Add(1)
			l.lines[cls].Add(lines(a.off, a.n))
			for pg := a.off / PageSize; pg <= (a.off+max(a.n, 1)-1)/PageSize; pg++ {
				l.pageFlushes[pg].Add(1)
			}
		}
		if a.kind == accAppBytes {
			l.app.Add(a.n)
		}
	}

	if r.traced {
		d.tr.Record(d.uid, clk, r.trace, a.off, a.n)
	}
}

// charge advances clk by lat plus the occupancy of n bytes on bw (none when
// bw is nil; with queue set, transfers of smallWrite bytes or more queue on
// the bulk channel) and returns the virtual time billed. A nil clk is not
// charged.
func charge(clk *simclock.Clock, lat int64, bw *simclock.Bandwidth, n int64, queue bool) int64 {
	if clk == nil {
		return 0
	}
	t0 := clk.Now()
	clk.Advance(lat)
	switch {
	case bw == nil:
	case queue && n >= smallWrite:
		bw.Transfer(clk, int(n))
	default:
		bw.TransferUnqueued(clk, int(n))
	}
	return clk.Now() - t0
}
