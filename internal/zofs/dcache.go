package zofs

import (
	"strconv"
	"sync"
	"sync/atomic"

	"zofs/internal/lockprof"
	"zofs/internal/nvm"
	"zofs/internal/proc"
)

// Volatile directory lookup cache.
//
// The on-NVM directory structure (two-level hash table, §5.1) resolves a
// name with one or more charged media reads per lookup and a linear slot
// scan per insert. This cache keeps, per directory inode, a complete DRAM
// index of its live dentries — name → (decoded dentry, NVM location) — plus
// the free dentry slots, so hot-path lookups cost one hash probe and
// inserts pop a free slot without rescanning pages.
//
// It lives in the per-device `shared` state: in the simulation every
// process of a device shares it, standing in for the shared-DRAM index a
// multi-process deployment would coordinate through lease words (the
// KucoFS-style index the paper cites as future work). ResetShared — the
// crash analogue — drops it wholesale, so a post-crash remount always
// starts cold and can never serve a pre-crash dentry.
//
// Coherence protocol:
//   - Every dentry mutation (dirInsert, dirRemove, dirUpdateCoffer — rename
//     composes these) runs under the directory's index mutex and applies
//     its delta to the index, so a complete index is always exact.
//   - An index is authoritative only while `complete` is set AND its epoch
//     matches the device epoch. Anything that rewrites dentries outside the
//     hooks (recovery's repair stores) or recycles directory pages outside
//     the µFS (coffer_delete) bumps the device epoch, invalidating every
//     index at once; InvalidateAll does the same. Rmdir drops the removed
//     directory's index directly.
//   - A non-authoritative index is rebuilt under its mutex by one full
//     charged scan; mutators that find the index non-authoritative fall
//     back to the on-NVM scan path and leave the index reset.
//
// Negative lookups need no tombstones: completeness means absence from the
// index IS the negative answer, invalidated naturally when an insert adds
// the name.
type dcache struct {
	epoch atomic.Uint64
	dirs  sync.Map // directory inode page (int64) -> *dirIndex
}

// dir returns (creating if needed) the index shell for a directory.
func (c *dcache) dir(ino int64) *dirIndex {
	if v, ok := c.dirs.Load(ino); ok {
		return v.(*dirIndex)
	}
	nidx := &dirIndex{}
	nidx.mu.Init("zofs.dcache", strconv.FormatInt(ino, 10))
	v, _ := c.dirs.LoadOrStore(ino, nidx)
	return v.(*dirIndex)
}

// bump invalidates every directory index on the device.
func (c *dcache) bump() { c.epoch.Add(1) }

// drop forgets one directory's index (the directory was removed and its
// pages may be recycled under a different identity).
func (c *dcache) drop(ino int64) { c.dirs.Delete(ino) }

// cachedDe is one indexed dentry: the decoded entry, where it lives on NVM,
// and which free list its slot returns to when removed.
type cachedDe struct {
	de  dentry
	loc deLoc
	bkt int64 // free-list key (inlineKey or chainKey)
}

// dirIndex is one directory's volatile index. mu serializes index access
// AND the NVM dentry mutations of this directory, so a rebuild scan always
// observes a quiescent structure. It is a real-time mutex (not a
// virtual-time lock): holding it costs no simulated time, and virtual-time
// concurrency is still governed by the bucket locks; the lockprof wrapper
// records its real contention without adding virtual cost.
type dirIndex struct {
	mu       lockprof.RealMutex
	epoch    uint64 // device epoch the index was built under
	complete bool   // names holds every live dentry of the directory
	names    map[string]cachedDe
	free     map[int64][]deLoc // free dentry slots by placement key
}

// authoritative reports whether the index may answer lookups and absorb
// mutation deltas. Caller holds mu.
func (idx *dirIndex) authoritative(epoch uint64) bool {
	return idx.complete && idx.epoch == epoch
}

// reset discards the index contents; the next lookup rebuilds.
func (idx *dirIndex) reset() {
	idx.complete = false
	idx.names = nil
	idx.free = nil
}

// inlineKey keys the free list of a second-level page's inline area: any
// name hashing to this first-level slot may use any inline slot.
func inlineKey(l1Idx int64) int64 { return l1Idx }

// chainKey keys the free list of one bucket's chain pages: a chain slot can
// only host names that hash to this (first-level slot, bucket) pair. Keys
// are disjoint from inlineKey's range.
func chainKey(l1Idx, bucket int64) int64 { return 1<<32 | l1Idx<<8 | bucket }

// dcacheBuild rebuilds a directory's index with one full charged scan of
// the on-NVM structure. Caller holds idx.mu and the coffer's MPK window.
// The index turns complete only once the scan finishes, so a fault
// part-way leaves it non-authoritative.
func (f *FS) dcacheBuild(th *proc.Thread, idx *dirIndex, dirIno int64, epoch uint64) {
	readPage := func(pg int64) []byte { return f.readView(th, pg*pageSize, pageSize) }
	idx.names = map[string]cachedDe{}
	idx.free = map[int64][]deLoc{}
	idx.epoch = epoch
	l1 := f.dirL1Of(th, dirIno)
	if l1 == 0 {
		idx.complete = true
		return
	}
	l1buf := readPage(l1)
	for i := int64(0); i < dirL1Slots; i++ {
		l2 := int64(u64at(l1buf, int(i*8)))
		if l2 == 0 {
			continue
		}
		l2buf := readPage(l2)
		ik := inlineKey(i)
		for o := int64(0); o+dentrySize <= l2BucketOff; o += dentrySize {
			f.dcacheRecord(idx, decodeDentry(l2buf[o:o+dentrySize]), deLoc{page: l2, off: o}, ik)
		}
		for b := int64(0); b < l2Buckets; b++ {
			ck := chainKey(i, b)
			pg := int64(u64at(l2buf, int(l2BucketOff+b*8)))
			for pg != 0 {
				cbuf := readPage(pg)
				next := int64(u64at(cbuf, chainNextOff))
				for o := int64(chainFirstDe); o+dentrySize <= pageSize; o += dentrySize {
					f.dcacheRecord(idx, decodeDentry(cbuf[o:o+dentrySize]), deLoc{page: pg, off: o}, ck)
				}
				pg = next
			}
		}
	}
	idx.complete = true
}

// dcacheRecord classifies one scanned slot: live entries index by name,
// free slots join their placement free list. A live-but-undecodable dentry
// (torn commit word) is neither — it is invisible to lookups, exactly as on
// the scan path, and its slot is left for recovery to reclaim.
func (f *FS) dcacheRecord(idx *dirIndex, d dentry, loc deLoc, bkt int64) {
	switch {
	case d.state == deStateLive && d.name != "":
		idx.names[d.name] = cachedDe{de: d, loc: loc, bkt: bkt}
	case d.state != deStateLive:
		idx.free[bkt] = append(idx.free[bkt], loc)
	}
}

// DirCacheDirs reports how many directory indexes the device's shared cache
// currently holds (tests and the crash checker assert a cold cache after
// remount).
func DirCacheDirs(dev *nvm.Device) int {
	s, ok := sharedRegistry.Load(dev.UID())
	if !ok {
		return 0
	}
	n := 0
	s.(*shared).dc.dirs.Range(func(any, any) bool { n++; return true })
	return n
}

// DirCacheEpoch reports the device's cache-invalidation epoch (tests).
func DirCacheEpoch(dev *nvm.Device) uint64 {
	s, ok := sharedRegistry.Load(dev.UID())
	if !ok {
		return 0
	}
	return s.(*shared).dc.epoch.Load()
}
