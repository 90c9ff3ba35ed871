package zofs

import (
	"errors"
	"fmt"
	"sync"

	"zofs/internal/byteflow"
	"zofs/internal/coffer"
	"zofs/internal/nvm"
	"zofs/internal/perfmodel"
	"zofs/internal/proc"
	"zofs/internal/retry"
	"zofs/internal/telemetry"
	"zofs/internal/vfs"
)

// rec returns the device's telemetry recorder (nil-safe when disabled).
func (f *FS) rec() *telemetry.Recorder { return f.kern.Device().Recorder() }

// allocRescanPolicy schedules pool-rescan backoff when every slot is leased
// to a live thread: the first retry lands after roughly half a lease window
// (the previous fixed behaviour), then grows toward two full windows so
// threads far past the pool size stop hammering the 62-slot scan. Budget is
// irrelevant here — the memo never sleeps — so only Base/Cap are used.
var allocRescanPolicy = retry.Policy{
	Base: leaseDuration / 2,
	Cap:  2 * leaseDuration,
}

// Leased per-thread allocator (paper §5.2, Figure 6).
//
// The coffer's custom page holds a shared pool of leased free-list
// structures {TID, lease, head, count}. A thread wanting pages first checks
// its cached slot; if the lease is valid it renews and allocates from its
// own free list (no cross-thread contention). Otherwise it claims a free or
// lease-expired slot from the pool. When a free list runs dry the thread
// requests a batch from KernFS via coffer_enlarge; freed pages are pushed
// back to the caller's own list. Free pages are chained through their first
// 8 bytes.
//
// Two classes exist per thread: metadata pages (kernel-zeroed grants, small
// batch) and data pages (unzeroed grants, large batch).

func slotOffset(custom int64, idx int32) int64 {
	return custom*pageSize + poolOff + int64(idx)*slotSize
}

// threadSlotsFor returns (creating if needed) the calling thread's slot
// cache for a mount. The map is lock-free on the hot path; each entry is
// only ever used by its own thread.
func (m *mount) threadSlotsFor(tid int) *threadSlots {
	if v, ok := m.slots.Load(tid); ok {
		return v.(*threadSlots)
	}
	v, _ := m.slots.LoadOrStore(tid, &threadSlots{slot: [2]int32{-1, -1}})
	return v.(*threadSlots)
}

// initPoolIfNeeded lazily formats the custom page's pool (idempotent; the
// first claimer wins the magic CAS).
func (f *FS) initPoolIfNeeded(th *proc.Thread, m *mount) {
	if th.Load64(m.custom*pageSize+customMagicOff) == customMagic {
		return
	}
	th.CAS64(m.custom*pageSize+customMagicOff, 0, customMagic)
}

// claimSlot finds a pool slot for the calling thread and allocation class:
// first its own previous slot of that class (the volatile cache may have
// been dropped by an unmap/remap cycle, but the lease still names this
// thread), then any free or expired slot. The class is recorded in the
// slot's TID field so meta and data free lists can never cross.
func (f *FS) claimSlot(th *proc.Thread, m *mount, class int) (int32, error) {
	f.initPoolIfNeeded(th, m)
	now := th.Clk.Now()
	myTID := th.TID & 0xffff
	for idx := int32(0); idx < poolSlots; idx++ {
		off := slotOffset(m.custom, idx)
		lease := th.Load64(off + slotLeaseOff)
		tid, expiry := unpackLease(lease)
		if lease == 0 || tid != myTID || expiry <= now {
			continue
		}
		if int(th.Load64(off+slotTIDOff)>>32) != class {
			continue
		}
		// Our own still-valid lease of the right class: renew and reuse.
		th.Store64(off+slotLeaseOff, leaseWord(th.TID, now+leaseDuration))
		return idx, nil
	}
	for idx := int32(0); idx < poolSlots; idx++ {
		off := slotOffset(m.custom, idx)
		lease := th.Load64(off + slotLeaseOff)
		_, expiry := unpackLease(lease)
		if lease != 0 && expiry > now {
			continue
		}
		if th.CAS64(off+slotLeaseOff, lease, leaseWord(th.TID, now+leaseDuration)) {
			th.Store64(off+slotTIDOff, uint64(th.TID)|uint64(class)<<32)
			return idx, nil
		}
	}
	if debugPool {
		println("claimSlot exhausted: coffer", m.id, "now", now)
		for idx := int32(0); idx < 8; idx++ {
			w := th.Load64(slotOffset(m.custom, idx) + slotLeaseOff)
			tid, exp := unpackLease(w)
			println("  slot", idx, "tid", tid, "expiry", exp)
		}
	}
	return -1, vfs.ErrNoSpace
}

// debugPool enables claimSlot diagnostics in tests.
var debugPool = false

// SetDebugPool toggles allocator pool diagnostics (tests only).
func SetDebugPool(v bool) { debugPool = v }

// debugFree tracks page states (1=on a free list, 2=live) to catch double
// grants and double frees in tests.
var debugFree sync.Map // page -> int

// slotFor returns the thread's claimed slot for a class, claiming or
// re-validating the lease as needed, along with the cached free-list head.
func (f *FS) slotFor(th *proc.Thread, m *mount, class int) (*threadSlots, int64, error) {
	th.CPU(perfmodel.CPULockAcquire) // clock_gettime for the lease check
	ts := m.threadSlotsFor(th.TID)
	if ts.slot[class] >= 0 {
		off := slotOffset(m.custom, ts.slot[class])
		lease := th.Load64Cached(off + slotLeaseOff)
		tid, expiry := unpackLease(lease)
		if tid == th.TID&0xffff && expiry > th.Clk.Now() {
			// Renew lazily: a persistent lease write per allocation would
			// dominate the hot path; half the lease window is plenty.
			if expiry-th.Clk.Now() < leaseDuration/2 {
				th.Store64(off+slotLeaseOff, leaseWord(th.TID, th.Clk.Now()+leaseDuration))
			}
			return ts, slotOffset(m.custom, ts.slot[class]), nil
		}
		// Lease lost (expired and stolen): drop the cache.
		ts.slot[class] = -1
		ts.head[class] = 0
	}
	idx, err := f.claimSlot(th, m, class)
	if err != nil {
		return nil, 0, err
	}
	ts.slot[class] = idx
	off := slotOffset(m.custom, idx)
	ts.head[class] = int64(th.Load64(off + slotHeadOff))
	return ts, off, nil
}

// allocPage takes one page for the thread: by default off its volatile
// batch cache (no NVM traffic at all), falling back to the persistent
// free list and finally a kernel grant. Metadata pages come back zeroed.
//
// The lease machinery still runs on every allocation (slotFor), so crashed
// holders remain observable; only the page list itself moved to DRAM. A
// crash drops cached pages on the floor — they stay tagged to the coffer in
// the allocation table but are referenced by nothing, so recovery's in-use
// traversal reclaims them (§5.3).
//
// Under SetDebugPool every metadata page handed out is checked all zero.
func (f *FS) allocPage(th *proc.Thread, m *mount, class int) (page int64, err error) {
	if debugPool && class == classMeta {
		defer func() {
			if err == nil {
				assertZeroed(f.kern.Device(), page)
			}
		}()
	}
	// Allocator scope: lease stores, kernel grants (including their zeroing
	// and allocation-table writes) and free-list chaining are alloc-class
	// bytes, whatever class the caller was writing.
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassAlloc))
	defer th.Clk.SetWriteClass(prev)
	if !f.opts.CopyPath {
		if ts := m.threadSlotsFor(th.TID); ts.slot[class] < 0 && th.Clk.Now() < ts.noSlotUntil[class] {
			th.CPU(perfmodel.CPULockAcquire) // backoff-deadline check
			return f.allocSlotless(th, m, ts, class)
		}
	}
	ts, slotOff, err := f.slotFor(th, m, class)
	if err == nil {
		ts.noSlotTries[class] = 0
	}
	if err != nil {
		if !f.opts.CopyPath && errors.Is(err, vfs.ErrNoSpace) {
			// Every pool slot is leased to a live thread: the pool is one
			// custom page (62 slots, §5.2), so past ~62 threads per coffer
			// claims must fail until a lease expires. Serve the thread
			// slotless through the volatile cache and back off the pool
			// rescans under the unified retry policy. The backoff is latent
			// (a memo of when to rescan, not a sleep — the thread keeps
			// serving pages slotless meanwhile), so no retry time is billed.
			ts := m.threadSlotsFor(th.TID)
			seed := uint64(th.TID)<<32 ^ uint64(m.id)
			ts.noSlotUntil[class] = th.Clk.Now() + allocRescanPolicy.DelayAt(seed, ts.noSlotTries[class])
			ts.noSlotTries[class]++
			return f.allocSlotless(th, m, ts, class)
		}
		return 0, err
	}
	if !f.opts.CopyPath {
		if page, ok := f.popCached(th, ts, class); ok {
			return page, nil
		}
		if f.drainReclaim(th, m, ts, class) {
			page, _ := f.popCached(th, ts, class)
			return page, nil
		}
		if ts.head[class] == 0 {
			// Both lists dry: one kernel grant refills the volatile cache.
			// Unlike pushExtents, no per-page chain stores and no persistent
			// head update — the whole batch costs one syscall.
			exts, err := f.enlarge(th, m, class)
			if err != nil {
				return 0, err
			}
			for _, e := range exts {
				for pg := e.Start; pg < e.End(); pg++ {
					if debugPool {
						debugFree.Store(pg, 1)
					}
					ts.cache[class] = append(ts.cache[class], pg)
				}
			}
			page, _ := f.popCached(th, ts, class)
			return page, nil
		}
		// Cache dry but the persistent list holds pages (stranded by a
		// CopyPath mount or a re-claimed slot): drain it below.
	}
	if ts.head[class] == 0 {
		exts, err := f.enlarge(th, m, class)
		if err != nil {
			return 0, err
		}
		f.pushExtents(th, ts, slotOff, class, exts)
	}
	page = ts.head[class]
	f.rec().Inc(telemetry.CtrZoFSPagesAlloc)
	if debugPool {
		debugFree.Store(page, 2)
	}
	// The thread itself chained these next pointers when the batch was
	// granted, so the line is cache-warm.
	next := int64(th.Load64Cached(page * pageSize))
	th.Store64(slotOff+slotHeadOff, uint64(next))
	ts.head[class] = next
	if class == classMeta {
		// The kernel zeroed the grant, but the free-list next pointer we
		// just consumed must be cleared before the page is used as
		// metadata.
		th.Store64(page*pageSize, 0)
	}
	return page, nil
}

// allocSlotless serves a page with no pool slot: straight from the volatile
// batch cache, refilled by whole kernel grants. A slot only carries the
// persistent free-list head, which the batch cache never used — a slotless
// thread loses nothing but crash observability. A crash leaks its cached
// batch and recovery's in-use traversal reclaims it, exactly as for slotted
// threads' caches (§5.3).
func (f *FS) allocSlotless(th *proc.Thread, m *mount, ts *threadSlots, class int) (int64, error) {
	if page, ok := f.popCached(th, ts, class); ok {
		return page, nil
	}
	if f.drainReclaim(th, m, ts, class) {
		page, _ := f.popCached(th, ts, class)
		return page, nil
	}
	exts, err := f.enlarge(th, m, class)
	if err != nil {
		return 0, err
	}
	for _, e := range exts {
		for pg := e.Start; pg < e.End(); pg++ {
			if debugPool {
				debugFree.Store(pg, 1)
			}
			ts.cache[class] = append(ts.cache[class], pg)
		}
	}
	page, _ := f.popCached(th, ts, class)
	return page, nil
}

// enlarge requests one batch of the class's configured size from KernFS.
func (f *FS) enlarge(th *proc.Thread, m *mount, class int) ([]coffer.Extent, error) {
	batch := f.opts.MetaEnlargeBatch
	zero := true
	if class == classData {
		batch, zero = f.opts.DataEnlargeBatch, false
	}
	exts, err := f.kern.CofferEnlarge(th, m.id, batch, zero)
	if err != nil {
		return nil, errno(err)
	}
	return exts, nil
}

// popCached takes the tail of the thread's volatile batch cache. Cached
// pages are never chained through NVM, so a metadata page stays fully
// zeroed from grant (or scrub-on-free) to use.
func (f *FS) popCached(th *proc.Thread, ts *threadSlots, class int) (int64, bool) {
	n := len(ts.cache[class])
	if n == 0 {
		return 0, false
	}
	page := ts.cache[class][n-1]
	ts.cache[class] = ts.cache[class][:n-1]
	th.CPU(perfmodel.CPUSmallOp)
	f.rec().Inc(telemetry.CtrZoFSPagesAlloc)
	if debugPool {
		debugFree.Store(page, 2)
	}
	return page, true
}

// pushExtents chains freshly granted extents onto the thread's free list.
// The next-pointer stores are independent 8-byte ntstores with one trailing
// fence, so the device pipelines them: charge one latency plus bandwidth
// for the batch rather than a fence per pointer.
func (f *FS) pushExtents(th *proc.Thread, ts *threadSlots, slotOff int64, class int, exts []coffer.Extent) {
	head := ts.head[class]
	var n int64
	for _, e := range exts {
		for pg := e.End() - 1; pg >= e.Start; pg-- {
			if debugPool {
				// Kernel grants may legitimately recycle pages reclaimed
				// wholesale by coffer_delete; reset their tracked state.
				debugFree.Store(pg, 1)
			}
			f.chainStore(th, pg*pageSize, uint64(head))
			head = pg
			n++
		}
	}
	th.CPU(perfmodel.NVMWriteLatency + n*perfmodel.CPUSmallOp)
	th.Fence()
	th.Store64(slotOff+slotHeadOff, uint64(head))
	ts.head[class] = head
}

// chainStore performs a checked 8-byte store whose media cost is accounted
// in bulk by the caller (pushExtents charges one batched latency + fence
// for the whole run). The store carries no clock — a clock here would
// double-bill that batched time — but its bytes still book to the alloc
// class via Store64Class, so free-list chaining no longer lands in the
// ledger's residual bucket.
func (f *FS) chainStore(th *proc.Thread, off int64, v uint64) {
	th.CheckAccess(off, 8, true)
	f.kern.Device().Store64Class(byteflow.ClassAlloc, off, v)
}

// freePage returns a page to the thread's free list — by default the
// volatile batch cache (one append, no NVM chain stores). Metadata pages
// are scrubbed on free so the metadata list invariant — pages arrive
// zeroed — holds for recycled pages exactly as for fresh kernel grants.
func (f *FS) freePage(th *proc.Thread, m *mount, class int, page int64) {
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassAlloc))
	defer th.Clk.SetWriteClass(prev)
	debugMarkFree(page, class)
	if !f.opts.CopyPath {
		if class == classMeta {
			th.Zero(page*pageSize, pageSize)
		}
		f.cachePage(th, m.threadSlotsFor(th.TID), class, page)
		return
	}
	ts, slotOff, err := f.slotFor(th, m, class)
	if err != nil {
		// Pool exhausted: leak the page; recovery reclaims it (§5.3).
		if debugPool {
			debugFree.Delete(page)
		}
		return
	}
	f.rec().Inc(telemetry.CtrZoFSPagesFreed)
	if class == classMeta {
		th.Zero(page*pageSize, pageSize)
	}
	th.Store64(page*pageSize, uint64(ts.head[class]))
	th.Store64(slotOff+slotHeadOff, uint64(page))
	ts.head[class] = page
}

// debugMarkFree records a page's return to the allocator under
// SetDebugPool, panicking on a double free.
func debugMarkFree(page int64, class int) {
	if !debugPool {
		return
	}
	if st, _ := debugFree.Load(page); st == 1 {
		panic(fmt.Sprintf("zofs: double free of page %d (class %d)", page, class))
	}
	debugFree.Store(page, 1)
}

// cachePage pushes a freed (and, for metadata, already scrubbed) page onto
// the thread's volatile batch cache: one append, no NVM traffic.
func (f *FS) cachePage(th *proc.Thread, ts *threadSlots, class int, page int64) {
	f.rec().Inc(telemetry.CtrZoFSPagesFreed)
	th.CPU(perfmodel.CPUSmallOp)
	ts.cache[class] = append(ts.cache[class], page)
}

// Deferred reclamation of unlinked regular files.
//
// Unlink (and rename-over, and the last close of an orphan) only appends
// the inode to the thread's per-mount queue: a CPU charge, no NVM traffic.
// The pages come back when the allocator next runs dry: allocPage drains
// queued inodes onto the batch caches before it asks KernFS for a grant, so
// create/unlink churn recycles its own pages instead of scrubbing kernel
// grants. Draining reads only the live direct-pointer prefix and scrubs
// only the inode bytes that can be non-zero. The queue is volatile, like the
// batch caches: a crash drops it, and recovery's in-use traversal reclaims
// the queued inodes, which no dentry references any more (§5.3).

// queueReclaim releases an unlinked inode that no handle holds open. A
// regular file goes on the deferred queue; symlink inodes (their target
// overlaps the block map) and CopyPath mounts free immediately.
func (f *FS) queueReclaim(th *proc.Thread, m *mount, ino int64, typ uint8) {
	switch {
	case vfs.FileType(typ) != vfs.TypeRegular:
		f.freePage(th, m, classMeta, ino)
	case f.opts.CopyPath:
		f.freeFileContent(th, m, ino)
	default:
		th.CPU(perfmodel.CPUSmallOp)
		ts := m.threadSlotsFor(th.TID)
		ts.reclaim = append(ts.reclaim, ino)
	}
}

// drainAll is the drainReclaim class that empties the whole queue.
const drainAll = -1

// drainReclaim releases queued inodes, most recent first, until the
// thread's cache holds a page of the wanted class or the queue is empty.
// Every inode yields a metadata page, so a metadata allocation drains at
// most one. The caller holds the mount's write window.
func (f *FS) drainReclaim(th *proc.Thread, m *mount, ts *threadSlots, class int) bool {
	for len(ts.reclaim) > 0 && (class == drainAll || len(ts.cache[class]) == 0) {
		n := len(ts.reclaim) - 1
		ino := ts.reclaim[n]
		ts.reclaim = ts.reclaim[:n]
		f.releaseInode(th, m, ts, ino)
	}
	return class != drainAll && len(ts.cache[class]) > 0
}

// DrainReclaim releases every inode the calling thread has queued for
// deferred reclamation, on every coffer this instance has mapped, into the
// thread's batch caches — charged exactly as allocPage's own drain. Tools
// and tests call it to settle pages_freed and the space report.
func (f *FS) DrainReclaim(th *proc.Thread) {
	f.mu.Lock()
	mounts := make([]*mount, 0, len(f.mounts))
	for _, m := range f.mounts {
		mounts = append(mounts, m)
	}
	f.mu.Unlock()
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassAlloc))
	defer th.Clk.SetWriteClass(prev)
	for _, m := range mounts {
		ts := m.threadSlotsFor(th.TID)
		if len(ts.reclaim) == 0 {
			continue
		}
		cl := f.window(th, m, true)
		f.drainReclaim(th, m, ts, drainAll)
		cl()
	}
}

// releaseInode frees one queued file. Files past the direct pointers, and
// inline files, take the full filePages path. Otherwise the file maps no
// indirect or double-indirect page (truncateTo and writeAt's error path
// keep that true), so only the min(blocks, inoDirectCnt) live direct
// pointers are read, and the scrub covers exactly the bytes that can be
// non-zero: the header and those pointer slots, then the indirect words,
// the inline flag and — with InlineData — the inline area.
func (f *FS) releaseInode(th *proc.Thread, m *mount, ts *threadSlots, ino int64) {
	blocks := (f.inodeSize(th, ino) + pageSize - 1) / pageSize
	if blocks > inoDirectCnt || f.isInline(th, ino) {
		f.freeFileContent(th, m, ino)
		return
	}
	if blocks > 0 {
		ptrs := f.readView(th, ino*pageSize+inoDirectOff, blocks*8)
		for i := int64(0); i < blocks; i++ {
			if pg := int64(u64at(ptrs, int(i*8))); pg != 0 {
				f.freePage(th, m, classData, pg)
			}
		}
	}
	if debugPool {
		var w [16]byte
		f.kern.Device().ReadNoCharge(ino*pageSize+inoIndirectOff, w[:])
		if u64at(w[:], 0) != 0 || u64at(w[:], 8) != 0 {
			panic(fmt.Sprintf("zofs: %d-block file %d maps indirect pages", blocks, ino))
		}
	}
	tail := int64(inoInlineOff)
	if f.opts.InlineData {
		tail = pageSize
	}
	th.Zero(ino*pageSize, inoDirectOff+blocks*8)
	th.Zero(ino*pageSize+inoIndirectOff, tail-inoIndirectOff)
	debugMarkFree(ino, classMeta)
	f.cachePage(th, ts, classMeta, ino)
}

// assertZeroed panics unless a metadata page about to be handed out is all
// zero — the invariant every grant, scrub-on-free and deferred-reclaim
// scrub must keep. Read uncharged: a diagnostic must not move virtual time.
func assertZeroed(dev *nvm.Device, page int64) {
	buf := make([]byte, pageSize)
	dev.ReadNoCharge(page*pageSize, buf)
	for i, b := range buf {
		if b != 0 {
			panic(fmt.Sprintf("zofs: metadata page %d handed out dirty (byte %d = %#x)", page, i, b))
		}
	}
}

// freeListPages walks every pool slot's chain and reports the pages held in
// persistent free lists (used by recovery to keep them out of the kernel
// reclaim, or to drop them deliberately). Volatile batch caches are
// intentionally invisible here: their pages are unreferenced by design and
// recovery reclaims them.
func (f *FS) freeListPages(th *proc.Thread, m *mount) []int64 {
	var out []int64
	if th.Load64(m.custom*pageSize+customMagicOff) != customMagic {
		return nil
	}
	for idx := int32(0); idx < poolSlots; idx++ {
		off := slotOffset(m.custom, idx)
		for pg := int64(th.Load64(off + slotHeadOff)); pg != 0; {
			out = append(out, pg)
			pg = int64(th.Load64(pg * pageSize))
		}
	}
	return out
}
