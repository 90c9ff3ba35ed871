package pmemtrace

import (
	"fmt"
	"io"
	"sort"

	"zofs/internal/perfmodel"
)

// LineSize is the cacheline granularity at which persistence is audited
// (matches nvm.LineSize without importing nvm).
const LineSize = perfmodel.CachelineSize

// PageSize mirrors nvm.PageSize for page-level cross-checks.
const PageSize = perfmodel.PageSize

// LostLine is one cacheline that was dirty — stored but never covered by a
// flush+fence — when a crash event occurred. Op is the op span the dirtying
// store fell inside, when one matches ("" otherwise).
type LostLine struct {
	Line     int64  `json:"line"`     // byte offset of the line start
	StoreTS  int64  `json:"store_ts"` // virtual time of the dirtying store
	TID      int32  `json:"tid"`
	Key      int16  `json:"key"`
	Op       string `json:"op,omitempty"`
	CrashSeq uint64 `json:"crash_seq"` // Seq of the crash event that lost it
}

// Report is the auditor's verdict over one event stream.
type Report struct {
	Events  int64 `json:"events"`
	Dropped bool  `json:"dropped"` // stream head missing (ring overflow, no spill)

	Stores   int64 `json:"stores"`    // cached stores
	NTStores int64 `json:"nt_stores"` // nt_store + store64 + cas + zero
	Flushes  int64 `json:"flushes"`
	Fences   int64 `json:"fences"` // explicit fence events only

	Crashes    int64 `json:"crashes"`
	Injected   int64 `json:"injected"`
	Violations int64 `json:"violations"`

	// LostLines are dirty-at-crash lines: lost-update risk (a).
	LostLines []LostLine `json:"lost_lines"`

	// Redundant work (b): flushes whose every line was already clean, and
	// explicit fences with no store since the previous fence point.
	RedundantFlushes    int64            `json:"redundant_flushes"`
	RedundantFlushLines int64            `json:"redundant_flush_lines"` // clean lines clwb'd (incl. partial)
	RedundantFlushByOp  map[string]int64 `json:"redundant_flush_by_op,omitempty"`
	EmptyFences         int64            `json:"empty_fences"`
	EmptyFenceByOp      map[string]int64 `json:"empty_fence_by_op,omitempty"`

	// Epoch summaries (c): an epoch ends at every fence point (explicit
	// fences plus the fences folded into persisting stores).
	Epochs             int64   `json:"epochs"`
	StoresPerEpochMean float64 `json:"stores_per_epoch_mean"`
	StoresPerEpochMax  int64   `json:"stores_per_epoch_max"`
	FlushFanoutMean    float64 `json:"flush_fanout_mean"` // lines per flush
}

// spanIndex answers "which traced op was thread T inside at time ts".
type spanIndex struct {
	byTID map[int32][]OpSpan
}

func newSpanIndex(spans []OpSpan) *spanIndex {
	idx := &spanIndex{byTID: map[int32][]OpSpan{}}
	for _, s := range spans {
		idx.byTID[int32(s.TID)] = append(idx.byTID[int32(s.TID)], s)
	}
	for tid := range idx.byTID {
		ss := idx.byTID[tid]
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	}
	return idx
}

// opAt returns the name of the op span containing ts on thread tid, or "".
func (idx *spanIndex) opAt(tid int32, ts int64) string {
	ss := idx.byTID[tid]
	// Last span starting at or before ts; spans from one thread are
	// sequential in virtual time, so at most one can contain ts.
	i := sort.Search(len(ss), func(i int) bool { return ss[i].Start > ts }) - 1
	if i >= 0 && ts <= ss[i].Start+ss[i].Dur {
		return ss[i].Op
	}
	return ""
}

// dirtyInfo remembers who dirtied a line, for attribution at crash time.
type dirtyInfo struct {
	ts  int64
	tid int32
	key int16
}

// devLine keys the dirty set: benchmark logs interleave several devices
// whose address ranges overlap, so replay state is partitioned per device.
type devLine struct {
	dev  uint64
	line int64
}

// DirtyLines is the set of lines stored but not yet persisted, replayed one
// event at a time with the auditor's transitions (the Chrome exporter's
// dirty_lines counter track).
type DirtyLines map[devLine]bool

// Apply moves the set across one event.
func (d DirtyLines) Apply(ev Event) {
	switch ev.Kind {
	case KindStore:
		first := ev.Off / LineSize * LineSize
		for lo := first; lo < ev.Off+ev.Len; lo += LineSize {
			d[devLine{ev.Dev, lo}] = true
		}
	case KindNTStore, KindStore64, KindCAS, KindZero, KindFlush:
		first := ev.Off / LineSize * LineSize
		for lo := first; lo < ev.Off+ev.Len; lo += LineSize {
			delete(d, devLine{ev.Dev, lo})
		}
	case KindCrash:
		for k := range d {
			if k.dev == ev.Dev {
				delete(d, k)
			}
		}
	}
}

// Audit replays an event stream through the persistence model and reports
// lost-update risks, redundant persistence work and epoch shape. spans, when
// non-nil, are the log's op spans, used to attribute findings to file
// system operations ("per layer": the op name encodes the issuing layer).
func Audit(events []Event, spans []OpSpan) *Report {
	rep := &Report{
		RedundantFlushByOp: map[string]int64{},
		EmptyFenceByOp:     map[string]int64{},
	}
	idx := newSpanIndex(spans)
	if len(events) > 0 && events[0].Seq > 1 {
		rep.Dropped = true
	}
	dirty := map[devLine]dirtyInfo{}

	var storesInEpoch int64 // stores since the last fence point
	var totalEpochStores int64
	var flushes, flushLines int64
	sawStoreSinceFence := false

	endEpoch := func() {
		rep.Epochs++
		totalEpochStores += storesInEpoch
		if storesInEpoch > rep.StoresPerEpochMax {
			rep.StoresPerEpochMax = storesInEpoch
		}
		storesInEpoch = 0
		sawStoreSinceFence = false
	}

	for _, ev := range events {
		rep.Events++
		switch ev.Kind {
		case KindStore:
			rep.Stores++
			storesInEpoch++
			sawStoreSinceFence = true
			first := ev.Off / LineSize * LineSize
			for lo := first; lo < ev.Off+ev.Len; lo += LineSize {
				k := devLine{ev.Dev, lo}
				if _, ok := dirty[k]; !ok {
					dirty[k] = dirtyInfo{ts: ev.TS, tid: ev.TID, key: ev.Key}
				}
			}

		case KindNTStore, KindStore64, KindCAS, KindZero:
			rep.NTStores++
			storesInEpoch++
			first := ev.Off / LineSize * LineSize
			for lo := first; lo < ev.Off+ev.Len; lo += LineSize {
				delete(dirty, devLine{ev.Dev, lo})
			}
			endEpoch()

		case KindFlush:
			rep.Flushes++
			flushes++
			covered := int64(0)
			cleanCovered := int64(0)
			first := ev.Off / LineSize * LineSize
			for lo := first; lo < ev.Off+ev.Len; lo += LineSize {
				covered++
				if _, ok := dirty[devLine{ev.Dev, lo}]; ok {
					delete(dirty, devLine{ev.Dev, lo})
				} else {
					cleanCovered++
				}
			}
			flushLines += covered
			rep.RedundantFlushLines += cleanCovered
			if covered > 0 && cleanCovered == covered {
				rep.RedundantFlushes++
				rep.RedundantFlushByOp[opOrUnattributed(idx, ev)]++
			}
			endEpoch()

		case KindFence:
			rep.Fences++
			if !sawStoreSinceFence {
				rep.EmptyFences++
				rep.EmptyFenceByOp[opOrUnattributed(idx, ev)]++
			}
			endEpoch()

		case KindCrash:
			rep.Crashes++
			for k, info := range dirty {
				if k.dev != ev.Dev {
					continue // the power failure hit one device only
				}
				rep.LostLines = append(rep.LostLines, LostLine{
					Line:     k.line,
					StoreTS:  info.ts,
					TID:      info.tid,
					Key:      info.key,
					Op:       idx.opAt(info.tid, info.ts),
					CrashSeq: ev.Seq,
				})
				delete(dirty, k)
			}

		case KindCrashInject:
			rep.Injected++

		case KindViolation:
			rep.Violations++
		}
	}
	if rep.Epochs > 0 {
		rep.StoresPerEpochMean = float64(totalEpochStores) / float64(rep.Epochs)
	}
	if flushes > 0 {
		rep.FlushFanoutMean = float64(flushLines) / float64(flushes)
	}
	sort.Slice(rep.LostLines, func(i, j int) bool {
		if rep.LostLines[i].CrashSeq != rep.LostLines[j].CrashSeq {
			return rep.LostLines[i].CrashSeq < rep.LostLines[j].CrashSeq
		}
		return rep.LostLines[i].Line < rep.LostLines[j].Line
	})
	return rep
}

func opOrUnattributed(idx *spanIndex, ev Event) string {
	if op := idx.opAt(ev.TID, ev.TS); op != "" {
		return op
	}
	return "(unattributed)"
}

// WriteText renders the report as a human-readable summary.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "events: %d (stores %d, nt-stores %d, flushes %d, explicit fences %d)\n",
		r.Events, r.Stores, r.NTStores, r.Flushes, r.Fences)
	if r.Dropped {
		fmt.Fprintf(w, "WARNING: stream head missing (ring overflow without spill); dirty-state replay is incomplete\n")
	}
	fmt.Fprintf(w, "crashes: %d (injected %d)  mpk violations: %d\n", r.Crashes, r.Injected, r.Violations)
	fmt.Fprintf(w, "lost lines (dirty at crash, never flushed): %d\n", len(r.LostLines))
	for _, l := range r.LostLines {
		op := l.Op
		if op == "" {
			op = "(unattributed)"
		}
		fmt.Fprintf(w, "  line %#x  stored at t=%dns by tid %d key %d during %s (crash seq %d)\n",
			l.Line, l.StoreTS, l.TID, l.Key, op, l.CrashSeq)
	}
	fmt.Fprintf(w, "redundant flushes (all lines already clean): %d ops, %d clean lines clwb'd\n",
		r.RedundantFlushes, r.RedundantFlushLines)
	writeByOp(w, r.RedundantFlushByOp)
	fmt.Fprintf(w, "empty fences (ordered nothing): %d\n", r.EmptyFences)
	writeByOp(w, r.EmptyFenceByOp)
	fmt.Fprintf(w, "epochs: %d  stores/fence mean %.2f max %d  flush fan-out mean %.2f lines\n",
		r.Epochs, r.StoresPerEpochMean, r.StoresPerEpochMax, r.FlushFanoutMean)
}

func writeByOp(w io.Writer, m map[string]int64) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-24s %d\n", name, m[name])
	}
}

// RepairSite is one repair an integrity checker (zofs fsck) performed after
// a crash, in device coordinates: Off is the repaired word/record, Target
// the page the dropped referent pointed at (0 if none).
type RepairSite struct {
	Off    int64  `json:"off"`
	Target int64  `json:"target"`
	Kind   string `json:"kind"`
}

// CrossCheck compares the auditor's lost-line report against the repairs an
// integrity checker performed on the post-crash image. It returns a list of
// disagreements (empty = the two views agree):
//
//   - a repair neither at a lost line nor referencing a page containing one
//     means fsck found damage the flight recorder cannot explain;
//   - any repair at all while the auditor saw zero lost lines means the
//     recorder missed a persistence hazard outright.
//
// The converse (lost lines with no repair) is NOT a disagreement: a lone
// unflushed line reverts to its last persisted — self-consistent — content,
// which is a lost update, not structural damage.
//
// "stale_ptr" repairs undo block pointers a crash interrupted between
// publish and size commit — sequence damage the stream explains by the
// crash event itself, not by lost lines — so they are exempt whenever the
// stream actually recorded a crash.
func CrossCheck(rep *Report, repairs []RepairSite) []string {
	var disagreements []string
	seqExplained := func(rp RepairSite) bool {
		return rp.Kind == "stale_ptr" && (rep.Crashes > 0 || rep.Injected > 0)
	}
	structural := 0
	for _, rp := range repairs {
		if !seqExplained(rp) {
			structural++
		}
	}
	if len(rep.LostLines) == 0 && structural > 0 {
		disagreements = append(disagreements,
			fmt.Sprintf("auditor reported 0 lost lines but fsck performed %d repair(s)", structural))
	}
	lostLines := map[int64]bool{}
	lostPages := map[int64]bool{}
	for _, l := range rep.LostLines {
		lostLines[l.Line] = true
		lostPages[l.Line/PageSize] = true
	}
	for _, rp := range repairs {
		if seqExplained(rp) {
			continue
		}
		if lostLines[rp.Off/LineSize*LineSize] || lostPages[rp.Off/PageSize] {
			continue // repair sits on lost state
		}
		if rp.Target != 0 && lostPages[rp.Target] {
			continue // repair dropped a reference into lost state
		}
		disagreements = append(disagreements,
			fmt.Sprintf("fsck repair %s at %#x (target page %d) matches no lost line", rp.Kind, rp.Off, rp.Target))
	}
	return disagreements
}
