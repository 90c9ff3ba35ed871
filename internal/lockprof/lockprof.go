// Package lockprof is the named-lock contention profiler: a process-wide
// registry of lock classes and instances (kernfs.big, zofs.inode/<page>,
// nvm.stripe/<i>, ...) whose wrappers around simclock.Mutex/RWMutex record,
// for every acquisition, the virtual wait, the hold, the acquiring thread and
// the blocking holder. From those it derives per-lock log-bucket histograms,
// a hold-while-waiting wait-for edge table with lock-order-inversion
// detection, and per-thread blocked-on intervals for the Chrome trace.
//
// Like spans and byteflow, the profiler observes virtual clocks but never
// advances them: enabled-mode virtual time is bit-identical to a profiler-
// free run (the `neutral` gate experiment asserts this), and the disabled
// fast path is one atomic load and a branch per acquire.
//
// Threads opt in via a ThreadState riding the clock's LockState slot
// (attached by proc.NewThread when a registry is active). Lock sites with a
// nil clock or an unattached thread take the uninstrumented path, so setup
// code costs nothing and sees nothing.
//
// zofs-bench -obs publishes the report (locks.json, locks.prom) and the
// blocked intervals (waits.jsonl); zofs-obs locks renders them.
package lockprof

import (
	"sync"
	"sync/atomic"

	"zofs/internal/simclock"
	"zofs/internal/telemetry"
)

const (
	// maxLocks bounds distinct instance entries per registry generation;
	// instances beyond the cap fold into a per-class "~other" row so an
	// unbounded namespace (one lock per inode page) cannot grow the table
	// without bound.
	maxLocks = 1024
	// maxEdges bounds the wait-for edge table; overflow is counted.
	maxEdges = 1024
	// maxThreads bounds the per-thread rows per generation.
	maxThreads = 4096
	// defaultRingCap is the blocked-interval ring size when Config doesn't
	// override it.
	defaultRingCap = 8192
)

// Config parameterizes Enable.
type Config struct {
	// RingCap sets the blocked-interval ring capacity (<=0 means default).
	RingCap int
}

// Registry is one profiling domain. Reset swaps in a fresh generation; stale
// wrapper caches re-resolve lazily, so per-cell sweeps reuse one registry
// without accumulating dead entries.
type Registry struct {
	state   atomic.Pointer[regState]
	ringCap int
	// heldNow is a live gauge of instrumented locks currently held. It is
	// registry-level (not per generation) so a Reset during a hold stays
	// balanced when the release lands; at quiescence it must read zero.
	heldNow atomic.Int64
}

// regState is one generation of collected data. Reset replaces the whole
// struct, which atomically empties every table.
type regState struct {
	gen      uint64
	entries  sync.Map // name string -> *entry
	nEntries atomic.Int64
	dropped  atomic.Int64 // instances folded into ~other rows

	edges        sync.Map // edgeKey -> *edge
	nEdges       atomic.Int64
	edgesDropped atomic.Int64

	order sync.Map // orderKey (class pair) -> *orderEvidence
	invMu sync.Mutex
	invs  []Inversion

	// process-wide totals; virtual wait/hold conserve exactly against the
	// per-entry sums of non-real entries, realWaitNS against real entries.
	acquires   atomic.Int64
	contended  atomic.Int64
	waitNS     atomic.Int64
	holdNS     atomic.Int64
	realWaitNS atomic.Int64

	thMu       sync.Mutex
	threads    []*tRec
	thrDropped atomic.Int64

	ringMu  sync.Mutex
	ring    []blockedRec
	ringPos int
	ringLen int
}

// entry is one named lock instance's accumulated statistics. All fields are
// concurrency-safe; the histograms are telemetry's lock-free log buckets.
type entry struct {
	rs    *regState // owning generation; totals bill here for conservation
	class string
	label string
	real  bool // real-nanosecond lock (sync.Mutex wrapper), outside virtual conservation
	other bool // per-class overflow aggregate row

	acquires   atomic.Int64
	reads      atomic.Int64
	contended  atomic.Int64
	waitNS     atomic.Int64
	holdNS     atomic.Int64
	maxWaitNS  atomic.Int64
	maxHoldNS  atomic.Int64
	lastHolder atomic.Int64 // TID of the most recent releaser

	waitH telemetry.Hist
	holdH telemetry.Hist
}

func (e *entry) name() string {
	if e.label == "" {
		return e.class
	}
	return e.class + "/" + e.label
}

type edgeKey struct{ from, to *entry }

type edge struct {
	count  atomic.Int64
	waitNS atomic.Int64
}

type orderKey struct{ from, to string }

// OrderEvidence is one witnessed acquisition order: the named locks held
// (outermost first) when a lock of another class was acquired.
type OrderEvidence struct {
	TID      int      `json:"tid"`
	Held     []string `json:"held"`
	Acquired string   `json:"acquired"`
}

// Inversion is a lock-order inversion: class A was acquired while holding
// class B somewhere, and class B while holding class A somewhere else — the
// classic potential-deadlock shape lockdep reports. Ordering between
// instances of the same class (rename's two buckets, two inodes taken in key
// order) is a per-class address discipline and deliberately out of scope.
type Inversion struct {
	A        string        `json:"a"`
	B        string        `json:"b"`
	Forward  OrderEvidence `json:"forward"`  // A held, B acquired
	Backward OrderEvidence `json:"backward"` // B held, A acquired
}

// tRec is one thread's per-generation wait totals.
type tRec struct {
	tid    int
	waitNS atomic.Int64
	blocks atomic.Int64
}

// blockedRec is one blocked interval in the ring (virtual times).
type blockedRec struct {
	tid    int
	holder int
	e      *entry
	start  int64
	dur    int64
}

// ThreadState is the per-thread rider on simclock.Clock's LockState slot. It
// carries the held-lock stack (accessed only by the owning thread) and a
// cached per-generation totals record.
type ThreadState struct {
	reg *Registry
	tid int
	rs  *regState
	tr  *tRec
	// held is the stack of instrumented locks this thread currently holds,
	// outermost first. Owned by the thread; never read concurrently.
	held []heldLock
}

type heldLock struct {
	e    *entry
	acq  int64
	read bool
}

var active atomic.Pointer[Registry]

// Enable creates a fresh registry and installs it as the active one,
// returning it. Threads created while it is active attach automatically.
func Enable(cfg Config) *Registry {
	r := NewRegistry(cfg)
	active.Store(r)
	return r
}

// NewRegistry creates a registry without installing it.
func NewRegistry(cfg Config) *Registry {
	rc := cfg.RingCap
	if rc <= 0 {
		rc = defaultRingCap
	}
	r := &Registry{ringCap: rc}
	r.state.Store(newRegState(1, rc))
	return r
}

// Install makes r the active registry (nil is equivalent to Disable) — the
// save/restore idiom harness gates use around instrumented runs.
func Install(r *Registry) {
	if r == nil {
		active.Store(nil)
		return
	}
	active.Store(r)
}

// Disable deactivates profiling. Existing ThreadStates go quiescent (their
// registry no longer matches the active one).
func Disable() { active.Store(nil) }

// Active returns the active registry, or nil.
func Active() *Registry { return active.Load() }

func newRegState(gen uint64, ringCap int) *regState {
	return &regState{gen: gen, ring: make([]blockedRec, ringCap)}
}

// Reset discards all collected data by swapping in a fresh generation.
// Wrapper entry caches and thread records re-resolve against the new
// generation on their next acquisition; a remount plus Reset leaves no trace
// of the previous instance's locks (asserted by the remount test).
func (r *Registry) Reset() {
	old := r.state.Load()
	r.state.Store(newRegState(old.gen+1, r.ringCap))
}

// NewThreadState returns a state for the given thread ID, for attachment to
// its clock via SetLockState.
func (r *Registry) NewThreadState(tid int) *ThreadState {
	return &ThreadState{reg: r, tid: tid}
}

// HeldNow reports the number of instrumented locks currently held — zero at
// quiescence, making it a leak assertion.
func (r *Registry) HeldNow() int64 { return r.heldNow.Load() }

// WaitNS reports the total virtual lock-wait nanoseconds recorded this
// generation. When spans and lockprof are both attached to the same threads
// this equals the span collector's LockWaitNS exactly.
func (r *Registry) WaitNS() int64 { return r.state.Load().waitNS.Load() }

// stateOf extracts a ThreadState attached to c, or nil.
func stateOf(c *simclock.Clock) *ThreadState {
	st, _ := c.LockState().(*ThreadState)
	return st
}

// recFor returns the thread's totals record in generation rs, re-attaching
// after a Reset.
func (st *ThreadState) recFor(rs *regState) *tRec {
	if st.rs == rs && st.tr != nil {
		return st.tr
	}
	rs.thMu.Lock()
	var tr *tRec
	if len(rs.threads) < maxThreads {
		tr = &tRec{tid: st.tid}
		rs.threads = append(rs.threads, tr)
	} else {
		rs.thrDropped.Add(1)
	}
	rs.thMu.Unlock()
	st.rs, st.tr = rs, tr
	return tr
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// entryFor resolves (class, label) to this generation's entry, folding into
// the class overflow row past the instance cap.
func (rs *regState) entryFor(class, label string, real bool) *entry {
	name := class
	if label != "" {
		name = class + "/" + label
	}
	if v, ok := rs.entries.Load(name); ok {
		return v.(*entry)
	}
	if rs.nEntries.Load() >= maxLocks {
		rs.dropped.Add(1)
		oname := class + "/~other"
		if v, ok := rs.entries.Load(oname); ok {
			return v.(*entry)
		}
		v, _ := rs.entries.LoadOrStore(oname, &entry{rs: rs, class: class, label: "~other", real: real, other: true})
		return v.(*entry)
	}
	e := &entry{rs: rs, class: class, label: label, real: real}
	if v, loaded := rs.entries.LoadOrStore(name, e); loaded {
		return v.(*entry)
	}
	rs.nEntries.Add(1)
	return e
}

// acquired records a completed instrumented acquisition: wait stats, the
// wait-for edge to the innermost held lock, class-order pairs, the blocked
// interval, and the push onto the held stack. now is the (post-drain)
// acquisition time on the thread's clock.
func (st *ThreadState) acquired(e *entry, wait, now int64, read bool, holderTID int) {
	rs := e.rs
	e.acquires.Add(1)
	if read {
		e.reads.Add(1)
	}
	e.waitH.Observe(wait)
	rs.acquires.Add(1)
	if wait > 0 {
		e.contended.Add(1)
		e.waitNS.Add(wait)
		atomicMax(&e.maxWaitNS, wait)
		rs.contended.Add(1)
		rs.waitNS.Add(wait)
		if tr := st.recFor(rs); tr != nil {
			tr.waitNS.Add(wait)
			tr.blocks.Add(1)
		}
		rs.recordBlocked(st.tid, holderTID, e, now-wait, wait)
		if n := len(st.held); n > 0 {
			rs.recordEdge(st.held[n-1].e, e, wait)
		}
	}
	for i := range st.held {
		if st.held[i].e.class != e.class {
			rs.recordOrder(st, st.held[i].e.class, e)
		}
	}
	st.reg.heldNow.Add(1)
	st.held = append(st.held, heldLock{e: e, acq: now, read: read})
}

// released pops e from the held stack (if the matching acquire was
// instrumented) and records the hold. Totals bill to e's own generation so
// per-generation conservation holds even across a Reset mid-hold.
func (st *ThreadState) released(e *entry, now int64) {
	for i := len(st.held) - 1; i >= 0; i-- {
		if st.held[i].e != e {
			continue
		}
		hold := now - st.held[i].acq
		st.held = append(st.held[:i], st.held[i+1:]...)
		st.reg.heldNow.Add(-1)
		if hold < 0 {
			hold = 0
		}
		e.holdH.Observe(hold)
		e.holdNS.Add(hold)
		atomicMax(&e.maxHoldNS, hold)
		e.lastHolder.Store(int64(st.tid))
		e.rs.holdNS.Add(hold)
		return
	}
}

func (rs *regState) recordEdge(from, to *entry, wait int64) {
	k := edgeKey{from, to}
	v, ok := rs.edges.Load(k)
	if !ok {
		if rs.nEdges.Load() >= maxEdges {
			rs.edgesDropped.Add(1)
			return
		}
		var loaded bool
		if v, loaded = rs.edges.LoadOrStore(k, &edge{}); !loaded {
			rs.nEdges.Add(1)
		}
	}
	ed := v.(*edge)
	ed.count.Add(1)
	ed.waitNS.Add(wait)
}

// recordOrder notes "class(held) taken before class(acquiring)" once per
// ordered class pair, keeping the held-stack names as evidence; when the
// reverse pair already exists the inversion is reported with both stacks.
func (rs *regState) recordOrder(st *ThreadState, heldClass string, acquiring *entry) {
	k := orderKey{heldClass, acquiring.class}
	if _, ok := rs.order.Load(k); ok {
		return
	}
	held := make([]string, len(st.held))
	for i := range st.held {
		held[i] = st.held[i].e.name()
	}
	ev := &OrderEvidence{TID: st.tid, Held: held, Acquired: acquiring.name()}
	if _, loaded := rs.order.LoadOrStore(k, ev); loaded {
		return
	}
	if rv, ok := rs.order.Load(orderKey{acquiring.class, heldClass}); ok {
		// The reverse direction was seen first: report it as the forward
		// edge so Inversion.A→B reads in first-observed order.
		rs.addInversion(acquiring.class, heldClass, *rv.(*OrderEvidence), *ev)
	}
}

func (rs *regState) addInversion(a, b string, fwd, back OrderEvidence) {
	rs.invMu.Lock()
	defer rs.invMu.Unlock()
	for i := range rs.invs {
		if (rs.invs[i].A == a && rs.invs[i].B == b) || (rs.invs[i].A == b && rs.invs[i].B == a) {
			return
		}
	}
	rs.invs = append(rs.invs, Inversion{A: a, B: b, Forward: fwd, Backward: back})
}

func (rs *regState) recordBlocked(tid, holder int, e *entry, start, dur int64) {
	rs.ringMu.Lock()
	rs.ring[rs.ringPos] = blockedRec{tid: tid, holder: holder, e: e, start: start, dur: dur}
	rs.ringPos = (rs.ringPos + 1) % len(rs.ring)
	if rs.ringLen < len(rs.ring) {
		rs.ringLen++
	}
	rs.ringMu.Unlock()
}

// Mutex is a named simclock.Mutex. The zero value works uninstrumented;
// Init (or NewMutex) names it. Lock/Unlock signatures match simclock.Mutex
// so call sites change only in the field's type.
type Mutex struct {
	class, label string
	mu           simclock.Mutex
	ent          atomic.Pointer[entry]
	// lastEnd/lastTID mirror the inner lock's release stamp and releaser for
	// blocking-holder blame. Plain fields: written before the inner Unlock,
	// read after the inner Lock, so the real mutex orders them.
	lastEnd int64
	lastTID int
}

// NewMutex returns a named mutex.
func NewMutex(class, label string) *Mutex {
	m := &Mutex{}
	m.Init(class, label)
	return m
}

// Init names a zero-value Mutex in place (for embedded fields). Call before
// first use.
func (m *Mutex) Init(class, label string) { m.class, m.label = class, label }

// resolve returns the current generation's entry for this lock, refreshing
// the wrapper cache after Enable/Reset. Must be called while holding the
// inner lock (the cache write races only with other holders, of which there
// are none).
func (m *Mutex) resolve(reg *Registry) *entry {
	rs := reg.state.Load()
	if e := m.ent.Load(); e != nil && e.rs == rs {
		return e
	}
	if m.class == "" {
		return nil
	}
	e := rs.entryFor(m.class, m.label, false)
	m.ent.Store(e)
	return e
}

// Lock acquires the mutex, draining virtual wait exactly as simclock.Mutex
// does; when profiling is active for this thread the wait, blamed holder and
// held-stack effects are recorded. Profiling never advances the clock.
func (m *Mutex) Lock(c *simclock.Clock) {
	reg := active.Load()
	if reg == nil || c == nil {
		m.mu.Lock(c)
		return
	}
	st := stateOf(c)
	if st == nil || st.reg != reg {
		m.mu.Lock(c)
		return
	}
	t0 := c.Now()
	m.mu.Lock(c)
	if e := m.resolve(reg); e != nil {
		st.acquired(e, c.Now()-t0, c.Now(), false, m.lastTID)
	}
}

// Unlock stamps the release and releases the mutex.
func (m *Mutex) Unlock(c *simclock.Clock) {
	if reg := active.Load(); reg != nil && c != nil {
		if st := stateOf(c); st != nil && st.reg == reg {
			if e := m.ent.Load(); e != nil {
				st.released(e, c.Now())
			}
			m.lastEnd = c.Now()
			m.lastTID = st.tid
		}
	}
	m.mu.Unlock(c)
}

// RWMutex is a named simclock.RWMutex.
type RWMutex struct {
	class, label string
	mu           simclock.RWMutex
	ent          atomic.Pointer[entry]
	// Writer release mirror: plain fields guarded by the write lock.
	wEnd int64
	wTID int
	// Reader release mirror: atomics, since readers release concurrently.
	rEnd atomic.Int64
	rTID atomic.Int64
}

// NewRWMutex returns a named readers-writer mutex.
func NewRWMutex(class, label string) *RWMutex {
	m := &RWMutex{}
	m.Init(class, label)
	return m
}

// Init names a zero-value RWMutex in place. Call before first use.
func (m *RWMutex) Init(class, label string) { m.class, m.label = class, label }

func (m *RWMutex) resolve(reg *Registry) *entry {
	rs := reg.state.Load()
	if e := m.ent.Load(); e != nil && e.rs == rs {
		return e
	}
	if m.class == "" {
		return nil
	}
	e := rs.entryFor(m.class, m.label, false)
	// Racy store among concurrent readers; all of them resolved the same
	// entry from the same generation, so any winner is correct.
	m.ent.Store(e)
	return e
}

// Lock acquires the write side. The blamed holder is whichever of the writer
// and reader release mirrors stamped later.
func (m *RWMutex) Lock(c *simclock.Clock) {
	reg := active.Load()
	if reg == nil || c == nil {
		m.mu.Lock(c)
		return
	}
	st := stateOf(c)
	if st == nil || st.reg != reg {
		m.mu.Lock(c)
		return
	}
	t0 := c.Now()
	m.mu.Lock(c)
	holder := m.wTID
	if m.rEnd.Load() > m.wEnd {
		holder = int(m.rTID.Load())
	}
	if e := m.resolve(reg); e != nil {
		st.acquired(e, c.Now()-t0, c.Now(), false, holder)
	}
}

// Unlock releases the write side.
func (m *RWMutex) Unlock(c *simclock.Clock) {
	if reg := active.Load(); reg != nil && c != nil {
		if st := stateOf(c); st != nil && st.reg == reg {
			if e := m.ent.Load(); e != nil {
				st.released(e, c.Now())
			}
			m.wEnd = c.Now()
			m.wTID = st.tid
		}
	}
	m.mu.Unlock(c)
}

// RLock acquires the read side; a contended reader blames the last writer.
func (m *RWMutex) RLock(c *simclock.Clock) {
	reg := active.Load()
	if reg == nil || c == nil {
		m.mu.RLock(c)
		return
	}
	st := stateOf(c)
	if st == nil || st.reg != reg {
		m.mu.RLock(c)
		return
	}
	t0 := c.Now()
	m.mu.RLock(c)
	if e := m.resolve(reg); e != nil {
		st.acquired(e, c.Now()-t0, c.Now(), true, m.wTID)
	}
}

// RUnlock releases the read side.
func (m *RWMutex) RUnlock(c *simclock.Clock) {
	if reg := active.Load(); reg != nil && c != nil {
		if st := stateOf(c); st != nil && st.reg == reg {
			if e := m.ent.Load(); e != nil {
				st.released(e, c.Now())
			}
			atomicMax(&m.rEnd, c.Now())
			m.rTID.Store(int64(st.tid))
		}
	}
	m.mu.RUnlock(c)
}
