package zofs

import (
	"zofs/internal/byteflow"
	"zofs/internal/perfmodel"
	"zofs/internal/proc"
	"zofs/internal/spans"
	"zofs/internal/vfs"
)

// Directory implementation: adaptive two-level hash tables (paper §5.1).
// The directory inode points to a first-level page of 512 pointers; each
// second-level page holds 16 inline dentries (first half) and 256 hash
// buckets (second half), each bucket heading a chain of dentry pages. New
// dentries prefer the inline area; pages are allocated on demand.

// dentry is the decoded view of an on-NVM directory entry.
type dentry struct {
	state    uint8
	typ      uint8 // vfs.FileType
	hash     uint32
	cofferID uint32
	inode    int64
	name     string
}

// deLoc locates a dentry on NVM.
type deLoc struct {
	page int64 // page number
	off  int64 // byte offset within the page
}

func (l deLoc) addr() int64 { return l.page*pageSize + l.off }

// decodeDentry parses a 128-byte dentry image.
func decodeDentry(b []byte) dentry {
	state, nameLen, typ, hash := unpackCommit(u64at(b, deCommitOff))
	d := dentry{state: state, typ: typ, hash: hash}
	if state == deStateLive && nameLen > 0 && nameLen <= MaxNameLen {
		d.cofferID = u32at(b, deCofferOff)
		d.inode = int64(u64at(b, deInodeOff))
		d.name = string(b[deNameOff : deNameOff+nameLen])
	}
	return d
}

// scanDentries scans a buffer of consecutive dentries, calling fn for each
// live entry; fn returns false to stop. Returns the stop offset or -1.
func scanDentries(buf []byte, baseOff int64, fn func(d dentry, off int64) bool) bool {
	for o := int64(0); o+dentrySize <= int64(len(buf)); o += dentrySize {
		d := decodeDentry(buf[o : o+dentrySize])
		if d.state != deStateLive {
			continue
		}
		if !fn(d, baseOff+o) {
			return false
		}
	}
	return true
}

// dirL1Of reads the directory's first-level page pointer (hot word).
func (f *FS) dirL1Of(th *proc.Thread, dirIno int64) int64 {
	return int64(th.Load64Cached(dirIno*pageSize + inoDirL1Off))
}

// dirLookup finds a name in a directory. Caller holds at least a read lock.
// With the directory cache enabled (the default) a hit costs one hash probe
// plus a cache-charged verification load of the commit word; the on-NVM
// walk runs only to (re)build the index.
func (f *FS) dirLookup(th *proc.Thread, dirIno int64, name string) (dentry, deLoc, error) {
	if f.opts.CopyPath {
		return f.dirLookupScan(th, dirIno, name)
	}
	th.CPU(perfmodel.CPUHashLookup)
	idx := f.sh.dc.dir(dirIno)
	c, ok := f.indexLookup(th, idx, dirIno, name, false)
	if !ok {
		// Negative answer from completeness: the index holds every live
		// dentry, so absence is authoritative.
		return dentry{}, deLoc{}, vfs.ErrNotExist
	}
	// Verify the hit against the NVM dentry before trusting it: the commit
	// word plus the routing fields (coffer, inode), which share one cache
	// line. A mismatch means some writer bypassed the coherence hooks —
	// possibly a malicious process rewriting dentries in a shared coffer —
	// so fall back to the on-NVM truth (rebuild), which the walk then
	// validates as usual (G3).
	hdr := f.readViewCached(th, c.loc.addr(), deNameOff)
	state, nameLen, typ, hash := unpackCommit(u64at(hdr, deCommitOff))
	if state == deStateLive && nameLen == len(name) && typ == c.de.typ && hash == c.de.hash &&
		u32at(hdr, deCofferOff) == c.de.cofferID &&
		u64at(hdr, deInodeOff) == uint64(c.de.inode) {
		return c.de, c.loc, nil
	}
	if c, ok = f.indexLookup(th, idx, dirIno, name, true); !ok {
		return dentry{}, deLoc{}, vfs.ErrNotExist
	}
	return c.de, c.loc, nil
}

// indexLookup answers name from a directory's index, first rebuilding the
// index when it is not authoritative or rebuild is set. The index mutex is
// released by defer: a fault inside the rebuild scan unwinds through here
// with the index left incomplete, so the next lookup rebuilds it instead of
// blocking on a wedged directory.
func (f *FS) indexLookup(th *proc.Thread, idx *dirIndex, dirIno int64, name string, rebuild bool) (cachedDe, bool) {
	sp := f.span(th)
	idx.mu.Lock()
	defer idx.mu.Unlock()
	cur := f.sh.dc.epoch.Load()
	if rebuild || !idx.authoritative(cur) {
		sp.DCacheMiss()
		idx.reset()
		t0 := th.Clk.Now()
		f.dcacheBuild(th, idx, dirIno, cur)
		sp.Child("dcache.rebuild", t0, th.Clk.Now()-t0)
	} else {
		sp.DCacheHit()
	}
	c, ok := idx.names[name]
	return c, ok
}

// dirLookupScan is the cache-free lookup: the on-NVM two-level hash walk.
func (f *FS) dirLookupScan(th *proc.Thread, dirIno int64, name string) (dentry, deLoc, error) {
	h := nameHash(name)
	th.CPU(perfmodel.CPUHashLookup)
	l1 := f.dirL1Of(th, dirIno)
	if l1 == 0 {
		return dentry{}, deLoc{}, vfs.ErrNotExist
	}
	l2 := int64(th.Load64Cached(l1*pageSize + 8*l1Index(h)))
	if l2 == 0 {
		return dentry{}, deLoc{}, vfs.ErrNotExist
	}
	// Inline area: hot directories keep their second-level pages in the
	// CPU cache, like a kernel dcache keeps dentries in DRAM, but every
	// slot still costs decode-and-compare CPU work.
	inline := f.readViewCached(th, l2*pageSize, l2BucketOff)
	th.CPU(perfmodel.CPUDentryScan * (l2BucketOff / dentrySize))
	want := checkHash(h)
	var found dentry
	var loc deLoc
	ok := false
	scanDentries(inline, 0, func(d dentry, off int64) bool {
		if d.hash == want && d.name == name {
			found, loc, ok = d, deLoc{page: l2, off: off}, true
			return false
		}
		return true
	})
	if ok {
		return found, loc, nil
	}
	// Bucket chain.
	pg := int64(th.Load64(l2*pageSize + l2BucketOff + 8*l2Bucket(h)))
	for pg != 0 {
		page := f.readView(th, pg*pageSize, pageSize)
		th.CPU(perfmodel.CPUDentryScan * ((pageSize - chainFirstDe) / dentrySize))
		next := int64(u64at(page, chainNextOff))
		scanDentries(page[chainFirstDe:], chainFirstDe, func(d dentry, off int64) bool {
			if d.hash == want && d.name == name {
				found, loc, ok = d, deLoc{page: pg, off: off}, true
				return false
			}
			return true
		})
		if ok {
			return found, loc, nil
		}
		pg = next
	}
	return dentry{}, deLoc{}, vfs.ErrNotExist
}

// writeDentry writes a dentry body then atomically publishes its commit
// word (§5.3's ordered update). The body write composes directly in the
// device image through a write view when available; the copy path remains
// for the CopyPath baseline.
func (f *FS) writeDentry(th *proc.Thread, loc deLoc, name string, typ uint8, cofferID uint32, inode int64) {
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassDentry))
	defer th.Clk.SetWriteClass(prev)
	wrote := false
	if !f.opts.CopyPath {
		if buf, commit, ok := th.WriteView(loc.addr()+8, dentrySize-8); ok {
			clear(buf)
			putU32(buf, deCofferOff-8, cofferID)
			putU64(buf, deInodeOff-8, uint64(inode))
			copy(buf[deNameOff-8:], name)
			commit()
			wrote = true
		}
	}
	if !wrote {
		// The body is composed in a DRAM staging buffer and then copied to
		// the device — the round trip the write view avoids.
		cost := perfmodel.StageCost(dentrySize - 8)
		th.CPU(cost)
		f.span(th).Bill(spans.CompMemcpy, cost)
		body := make([]byte, dentrySize-8)
		putU32(body, deCofferOff-8, cofferID)
		putU64(body, deInodeOff-8, uint64(inode))
		copy(body[deNameOff-8:], name)
		th.WriteNT(loc.addr()+8, body)
	}
	th.Fence()
	th.Store64(loc.addr(), dentryCommit(deStateLive, len(name), typ, checkHash(nameHash(name))))
}

// dirInsert adds a dentry. Caller holds the bucket write lock and has
// verified the name does not exist. With the directory cache enabled the
// insert runs under the index mutex and applies its delta, keeping the
// index exact; free dentry slots come off the cached free lists instead of
// rescanning pages.
func (f *FS) dirInsert(th *proc.Thread, m *mount, dirIno int64, name string, typ uint8, cofferID uint32, inode int64) error {
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassDentry))
	defer th.Clk.SetWriteClass(prev)
	if len(name) > MaxNameLen {
		return vfs.ErrNameTooLong
	}
	if f.opts.CopyPath {
		return f.dirInsertScan(th, m, dirIno, name, typ, cofferID, inode)
	}
	idx := f.sh.dc.dir(dirIno)
	idx.mu.Lock()
	defer idx.mu.Unlock()
	if idx.authoritative(f.sh.dc.epoch.Load()) {
		return f.dirInsertCached(th, m, idx, dirIno, name, typ, cofferID, inode)
	}
	// Non-authoritative index: mutate via the scan path and leave the index
	// reset; the next lookup rebuilds it.
	idx.reset()
	return f.dirInsertScan(th, m, dirIno, name, typ, cofferID, inode)
}

// dirInsertCached inserts through an authoritative index. Caller holds
// idx.mu and the bucket lock.
func (f *FS) dirInsertCached(th *proc.Thread, m *mount, idx *dirIndex, dirIno int64, name string, typ uint8, cofferID uint32, inode int64) error {
	h := nameHash(name)
	th.CPU(perfmodel.CPUHashLookup)
	commit := func(loc deLoc, bkt int64) {
		f.writeDentry(th, loc, name, typ, cofferID, inode)
		idx.names[name] = cachedDe{
			de:  dentry{state: deStateLive, typ: typ, hash: checkHash(h), cofferID: cofferID, inode: inode, name: name},
			loc: loc,
			bkt: bkt,
		}
	}
	// Inline area first (§5.1), then this bucket's chain slots — both from
	// the cached free lists, with no on-NVM structure walk at all.
	i := l1Index(h)
	ik := inlineKey(i)
	if n := len(idx.free[ik]); n > 0 {
		loc := idx.free[ik][n-1]
		idx.free[ik] = idx.free[ik][:n-1]
		th.CPU(perfmodel.CPUSmallOp)
		commit(loc, ik)
		return nil
	}
	b := l2Bucket(h)
	ck := chainKey(i, b)
	if n := len(idx.free[ck]); n > 0 {
		loc := idx.free[ck][n-1]
		idx.free[ck] = idx.free[ck][:n-1]
		th.CPU(perfmodel.CPUSmallOp)
		commit(loc, ck)
		return nil
	}
	// Both free lists dry: the structure must grow. The L1/L2 pointer
	// lines of a cache-served directory are hot.
	l1 := f.dirL1Of(th, dirIno)
	if l1 == 0 {
		pg, err := f.allocPage(th, m, classMeta)
		if err != nil {
			return err
		}
		if th.CAS64(dirIno*pageSize+inoDirL1Off, 0, uint64(pg)) {
			l1 = pg
		} else {
			f.freePage(th, m, classMeta, pg)
			l1 = f.dirL1Of(th, dirIno)
		}
	}
	l1Slot := l1*pageSize + 8*i
	l2 := int64(th.Load64Cached(l1Slot))
	if l2 == 0 {
		pg, err := f.allocPage(th, m, classMeta)
		if err != nil {
			return err
		}
		th.Store64(l1Slot, uint64(pg))
		l2 = pg
		// A fresh (zeroed) second-level page: the first inline slot takes
		// this dentry, the rest go on the free list.
		commit(deLoc{page: l2, off: 0}, ik)
		for o := int64(dentrySize); o+dentrySize <= l2BucketOff; o += dentrySize {
			idx.free[ik] = append(idx.free[ik], deLoc{page: l2, off: o})
		}
		return nil
	}
	// Inline area and this bucket's chains are full: fresh chain page at
	// the head, remaining slots registered free.
	bucketAddr := l2*pageSize + l2BucketOff + 8*b
	head := int64(th.Load64(bucketAddr))
	pg, err := f.allocPage(th, m, classMeta)
	if err != nil {
		return err
	}
	th.Store64(pg*pageSize+chainNextOff, uint64(head))
	commit(deLoc{page: pg, off: chainFirstDe}, ck)
	th.Store64(bucketAddr, uint64(pg))
	for o := int64(chainFirstDe + dentrySize); o+dentrySize <= pageSize; o += dentrySize {
		idx.free[ck] = append(idx.free[ck], deLoc{page: pg, off: o})
	}
	return nil
}

// dirInsertScan is the cache-free insert: linear free-slot scan of the
// on-NVM structure. Allocates L1/L2/chain pages on demand.
func (f *FS) dirInsertScan(th *proc.Thread, m *mount, dirIno int64, name string, typ uint8, cofferID uint32, inode int64) error {
	h := nameHash(name)
	th.CPU(perfmodel.CPUHashLookup)
	l1 := f.dirL1Of(th, dirIno)
	if l1 == 0 {
		// Install the first-level page with a CAS: mutations in different
		// buckets race here (bucket locks do not serialize this install).
		pg, err := f.allocPage(th, m, classMeta)
		if err != nil {
			return err
		}
		if th.CAS64(dirIno*pageSize+inoDirL1Off, 0, uint64(pg)) {
			l1 = pg
		} else {
			f.freePage(th, m, classMeta, pg)
			l1 = f.dirL1Of(th, dirIno)
		}
	}
	l1Slot := l1*pageSize + 8*l1Index(h)
	l2 := int64(th.Load64(l1Slot))
	if l2 == 0 {
		pg, err := f.allocPage(th, m, classMeta)
		if err != nil {
			return err
		}
		th.Store64(l1Slot, uint64(pg))
		l2 = pg
	}
	// Try the inline area first (§5.1: "ZoFS tries to put new dentries in
	// the second-level page first"). Hot directories keep this page in the
	// CPU cache, like dirLookup, but the free-slot scan still burns CPU.
	inline := f.readViewCached(th, l2*pageSize, l2BucketOff)
	th.CPU(perfmodel.CPUDentryScan * (l2BucketOff / dentrySize))
	for o := int64(0); o < l2BucketOff; o += dentrySize {
		if state, _, _, _ := unpackCommit(u64at(inline, int(o))); state != deStateLive {
			f.writeDentry(th, deLoc{page: l2, off: o}, name, typ, cofferID, inode)
			return nil
		}
	}
	// Walk the bucket chain for a free slot.
	bucketAddr := l2*pageSize + l2BucketOff + 8*l2Bucket(h)
	head := int64(th.Load64(bucketAddr))
	for pg := head; pg != 0; {
		page := f.readView(th, pg*pageSize, pageSize)
		th.CPU(perfmodel.CPUDentryScan * ((pageSize - chainFirstDe) / dentrySize))
		next := int64(u64at(page, chainNextOff))
		for o := int64(chainFirstDe); o+dentrySize <= pageSize; o += dentrySize {
			if state, _, _, _ := unpackCommit(u64at(page, int(o))); state != deStateLive {
				f.writeDentry(th, deLoc{page: pg, off: o}, name, typ, cofferID, inode)
				return nil
			}
		}
		pg = next
	}
	// Allocate a fresh chain page at the head: fill it, then publish the
	// bucket pointer atomically.
	pg, err := f.allocPage(th, m, classMeta)
	if err != nil {
		return err
	}
	th.Store64(pg*pageSize+chainNextOff, uint64(head))
	f.writeDentry(th, deLoc{page: pg, off: chainFirstDe}, name, typ, cofferID, inode)
	th.Store64(bucketAddr, uint64(pg))
	return nil
}

// dirRemove kills a dentry with a single atomic commit-word store. With the
// cache enabled the store runs under the index mutex and the slot returns
// to its free list, so the index stays complete.
func (f *FS) dirRemove(th *proc.Thread, dirIno int64, name string, loc deLoc) {
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassDentry))
	defer th.Clk.SetWriteClass(prev)
	if f.opts.CopyPath {
		th.Store64(loc.addr(), dentryCommit(deStateFree, 0, 0, 0))
		return
	}
	idx := f.sh.dc.dir(dirIno)
	idx.mu.Lock()
	defer idx.mu.Unlock()
	th.Store64(loc.addr(), dentryCommit(deStateFree, 0, 0, 0))
	if idx.authoritative(f.sh.dc.epoch.Load()) {
		if c, ok := idx.names[name]; ok && c.loc == loc {
			delete(idx.names, name)
			idx.free[c.bkt] = append(idx.free[c.bkt], loc)
		} else {
			idx.reset()
		}
	}
}

// dirUpdateCoffer rewrites a dentry's cross-coffer reference in place:
// the coffer-ID field is written, then the inode pointer is re-stored to
// refresh readers (same name). The cached entry absorbs the same delta.
func (f *FS) dirUpdateCoffer(th *proc.Thread, dirIno int64, name string, loc deLoc, cofferID uint32, inode int64) {
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassDentry))
	defer th.Clk.SetWriteClass(prev)
	write := func() {
		var b [8]byte
		putU32(b[:4], 0, cofferID)
		th.WriteNT(loc.addr()+deCofferOff, b[:4])
		th.Store64(loc.addr()+deInodeOff, uint64(inode))
		th.Fence()
	}
	if f.opts.CopyPath {
		write()
		return
	}
	idx := f.sh.dc.dir(dirIno)
	idx.mu.Lock()
	defer idx.mu.Unlock()
	write()
	if idx.authoritative(f.sh.dc.epoch.Load()) {
		if c, ok := idx.names[name]; ok && c.loc == loc {
			c.de.cofferID = cofferID
			c.de.inode = inode
			idx.names[name] = c
		} else {
			idx.reset()
		}
	}
}

// dirScan calls fn for every live dentry; fn returns false to stop early.
// Caller holds at least a read lock.
func (f *FS) dirScan(th *proc.Thread, dirIno int64, fn func(d dentry, loc deLoc) bool) {
	l1 := f.dirL1Of(th, dirIno)
	if l1 == 0 {
		return
	}
	l1buf := f.readView(th, l1*pageSize, pageSize)
	for i := 0; i < dirL1Slots; i++ {
		l2 := int64(u64at(l1buf, i*8))
		if l2 == 0 {
			continue
		}
		page := f.readView(th, l2*pageSize, pageSize)
		stop := false
		scanDentries(page[:l2BucketOff], 0, func(d dentry, off int64) bool {
			if !fn(d, deLoc{page: l2, off: off}) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
		for b := 0; b < l2Buckets; b++ {
			pg := int64(u64at(page, l2BucketOff+b*8))
			for pg != 0 {
				chain := f.readView(th, pg*pageSize, pageSize)
				next := int64(u64at(chain, chainNextOff))
				scanDentries(chain[chainFirstDe:], chainFirstDe, func(d dentry, off int64) bool {
					if !fn(d, deLoc{page: pg, off: off}) {
						stop = true
						return false
					}
					return true
				})
				if stop {
					return
				}
				pg = next
			}
		}
	}
}

// dirEmpty reports whether a directory has no live entries.
func (f *FS) dirEmpty(th *proc.Thread, dirIno int64) bool {
	empty := true
	f.dirScan(th, dirIno, func(dentry, deLoc) bool {
		empty = false
		return false
	})
	return empty
}

// dirPages collects every page used by the directory structure itself
// (L1, L2 and chain pages), for truncation/recovery accounting.
func (f *FS) dirPages(th *proc.Thread, dirIno int64) []int64 {
	l1 := f.dirL1Of(th, dirIno)
	if l1 == 0 {
		return nil
	}
	pages := []int64{l1}
	l1buf := f.readView(th, l1*pageSize, pageSize)
	for i := 0; i < dirL1Slots; i++ {
		l2 := int64(u64at(l1buf, i*8))
		if l2 == 0 {
			continue
		}
		pages = append(pages, l2)
		page := f.readView(th, l2*pageSize, pageSize)
		for b := 0; b < l2Buckets; b++ {
			pg := int64(u64at(page, l2BucketOff+b*8))
			var next [8]byte
			for pg != 0 {
				pages = append(pages, pg)
				th.Read(pg*pageSize+chainNextOff, next[:])
				pg = int64(u64at(next[:], 0))
			}
		}
	}
	return pages
}
