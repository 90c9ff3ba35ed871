package zofs

import (
	"strconv"
	"sync"

	"zofs/internal/byteflow"
	"zofs/internal/lockprof"
	"zofs/internal/nvm"
	"zofs/internal/perfmodel"
	"zofs/internal/proc"
	"zofs/internal/retry"
	"zofs/internal/vfs"
)

// shared holds the cross-process coordination state for one device's ZoFS
// coffers. On real hardware this is carried entirely by NVM lease words and
// cache coherence; in the simulation the persistent lease words are still
// maintained (recovery inspects and clears them) while the blocking/waiting
// behaviour is modeled by per-inode virtual-time readers-writer locks,
// shared by every process of the same device.
type shared struct {
	locks sync.Map // inode page (int64) -> *lockprof.RWMutex
	// open tracks open-handle counts per inode across every process of the
	// device, so unlink can defer content reclamation until the last close
	// (POSIX semantics). A crash drops the table; recovery reclaims the
	// orphans' pages (§5.3).
	open sync.Map // inode page (int64) -> *openState
	// dc is the volatile directory lookup index (see dcache.go). Dropping
	// the shared state on crash drops it too, so recovery can never observe
	// pre-crash cached dentries.
	dc dcache
	// retained maps inode page -> parked lease word (uint64) for batched
	// lease renewal (DESIGN.md §14): unlockInode leaves a still-live lease
	// word in NVM and parks it here instead of CAS-clearing it, so the next
	// lock of the same inode by the same thread within the lease window
	// reuses the word with zero NVM writes. Another thread finding a parked
	// word steals it immediately (epoch bump) — the park is the proof the
	// in-process hold is over. Volatile by design: a crash drops the table,
	// leaving the word for recovery to clear, exactly like a crashed live
	// lease.
	retained sync.Map
}

type openState struct {
	mu       sync.Mutex
	count    int
	orphaned bool
	typ      uint8 // vfs.FileType of the orphan, for reclamation
}

// retain registers an open handle on an inode.
func (s *shared) retain(ino int64) {
	v, _ := s.open.LoadOrStore(ino, &openState{})
	st := v.(*openState)
	st.mu.Lock()
	st.count++
	st.mu.Unlock()
}

// release drops a handle; it reports whether the caller must now reclaim an
// orphaned inode's content (and of which type).
func (s *shared) release(ino int64) (reclaim bool, typ uint8) {
	v, ok := s.open.Load(ino)
	if !ok {
		return false, 0
	}
	st := v.(*openState)
	st.mu.Lock()
	st.count--
	if st.count <= 0 {
		reclaim, typ = st.orphaned, st.typ
		s.open.Delete(ino)
	}
	st.mu.Unlock()
	return reclaim, typ
}

// orphan marks an unlinked-but-open inode; it reports whether any handle is
// still open (true = defer reclamation to the last close).
func (s *shared) orphan(ino int64, typ uint8) bool {
	v, ok := s.open.Load(ino)
	if !ok {
		return false
	}
	st := v.(*openState)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.count <= 0 {
		return false
	}
	st.orphaned, st.typ = true, typ
	return true
}

var sharedRegistry sync.Map // nvm.Device UID -> *shared

// OpenInodes reports how many inodes of a device have open handles in any
// process (tests assert that closed handles leave the table empty).
func OpenInodes(dev *nvm.Device) int {
	s, ok := sharedRegistry.Load(dev.UID())
	if !ok {
		return 0
	}
	n := 0
	s.(*shared).open.Range(func(any, any) bool { n++; return true })
	return n
}

// ResetShared discards all volatile cross-process coordination state for a
// device — the analogue of every process dying in a power failure. Crash
// tests call it right after nvm.Device.Crash, before remounting; persistent
// lease words remain on the device for recovery to clear.
func ResetShared(dev *nvm.Device) { sharedRegistry.Delete(dev.UID()) }

func sharedFor(dev *nvm.Device) *shared {
	if s, ok := sharedRegistry.Load(dev.UID()); ok {
		return s.(*shared)
	}
	s, _ := sharedRegistry.LoadOrStore(dev.UID(), &shared{})
	return s.(*shared)
}

// lockOf returns the shared lock for an inode page (non-negative keys) or a
// directory hash bucket (negative keys), naming it for the lock profiler on
// first creation.
func (s *shared) lockOf(page int64) *lockprof.RWMutex {
	if l, ok := s.locks.Load(page); ok {
		return l.(*lockprof.RWMutex)
	}
	var nl *lockprof.RWMutex
	if page < 0 {
		nl = lockprof.NewRWMutex("zofs.dirbucket", strconv.FormatInt(-page, 10))
	} else {
		nl = lockprof.NewRWMutex("zofs.inode", strconv.FormatInt(page, 10))
	}
	l, _ := s.locks.LoadOrStore(page, nl)
	return l.(*lockprof.RWMutex)
}

// leaseAcquirePolicy bounds how long an op may wait behind a live foreign
// inode lease (a stalled or dead holder in another process): jittered
// exponential polling of the lease word, giving up with a typed timeout
// after five lease windows. The waits are real virtual-time sleeps, billed
// to the spans retry component.
var leaseAcquirePolicy = retry.Policy{
	Base:   20_000, // 20µs: first re-poll of the lease word
	Cap:    leaseDuration / 4,
	Budget: 5 * leaseDuration,
}

// lockInode write-locks an inode: virtual-time/real serialization through
// the shared lock, plus the persistent lease word (§5.2) so that crashed
// holders are observable and recoverable. The write window for the owning
// coffer is (re)opened, since the lease write needs it. The returned epoch
// fences the caller's commit points (checkLease) and must be handed back to
// unlockInode. On vfs.ErrLeaseTimeout the shared lock is already released.
func (f *FS) lockInode(th *proc.Thread, m *mount, ino int64) (uint8, error) {
	sp := f.span(th)
	th.CPU(perfmodel.CPULockAcquire) // clock_gettime via vDSO + bookkeeping
	t0 := th.Clk.Now()
	f.sh.lockOf(ino).Lock(th.Clk)
	if w := th.Clk.Now() - t0; w > 0 {
		sp.LockContend(ino, w)
	}
	f.window(th, m, true)
	epoch, err := f.claimInodeLease(th, ino)
	if err != nil {
		f.sh.lockOf(ino).Unlock(th.Clk)
		return 0, err
	}
	return epoch, nil
}

// claimInodeLease takes the persistent inode lease by CAS. In-process
// writers are already serialized by the shared lock; the loop exists for
// the cross-process cases the lease word carries: a free word is claimed at
// its current epoch, an expired foreign lease is stolen with the epoch
// bumped (fencing the late holder), and a live foreign lease is waited out
// under the unified retry policy until its expiry or the op's deadline
// budget runs out.
func (f *FS) claimInodeLease(th *proc.Thread, ino int64) (uint8, error) {
	off := ino*pageSize + inoLeaseOff
	wprev := th.Clk.SwapWriteClass(uint8(byteflow.ClassInode))
	defer th.Clk.SetWriteClass(wprev)
	var bo *retry.Backoff
	for {
		// The lease word of a repeatedly locked inode stays resident in the
		// owner's cache between ops; contended re-polls after a sleep pay
		// the coherence miss through the CAS instead.
		w := th.Load64Cached(off)
		tid, epoch, expiry := unpackInoLease(w)
		now := th.Clk.Now()
		if w != 0 {
			if parked, ok := f.sh.retained.Load(ino); ok && parked.(uint64) == w {
				if tid == th.TID&0xffff {
					// Our own parked lease: the batched fast path. Reuse the
					// word as-is — zero NVM writes per lock/unlock pair —
					// renewing only once the window is half-spent (the
					// allocator slot idiom), so renewals amortize to one
					// write per lease window instead of two per op.
					if expiry > now && expiry-now >= leaseDuration/2 && expiry <= now+leaseDuration {
						f.sh.retained.Delete(ino)
						return uint8(epoch), nil
					}
					if th.CAS64(off, w, inoLeaseWord(th.TID, epoch, now+leaseDuration)) {
						f.sh.retained.Delete(ino)
						return uint8(epoch), nil
					}
					continue
				}
				// Foreign parked lease: the park proves the holder's
				// in-process hold ended, so steal immediately (epoch bump
				// fences the parker's stale word) instead of sleeping out
				// the remaining window.
				ne := (epoch + 1) & 0xff
				if th.CAS64(off, w, inoLeaseWord(th.TID, ne, now+leaseDuration)) {
					f.sh.retained.Delete(ino)
					return uint8(ne), nil
				}
				continue
			}
		}
		switch {
		case w == 0 || (tid == th.TID&0xffff && expiry > now):
			// Free, or our own still-live lease (a re-claimed word after a
			// partial failure): (re)take it at the current epoch.
			if th.CAS64(off, w, inoLeaseWord(th.TID, epoch, now+leaseDuration)) {
				return uint8(epoch), nil
			}
		case expiry <= now:
			// Expired foreign lease — the holder died or stalled past its
			// window. Steal it, bumping the epoch so the fence rejects any
			// in-flight publish the old holder wakes up with.
			ne := (epoch + 1) & 0xff
			if th.CAS64(off, w, inoLeaseWord(th.TID, ne, now+leaseDuration)) {
				return uint8(ne), nil
			}
		default:
			// Live foreign lease: wait it out under the retry policy.
			if bo == nil {
				bo = leaseAcquirePolicy.Start(now, uint64(th.TID)<<32^uint64(ino))
			}
			th.CPU(perfmodel.CPULockAcquire) // lease-word re-poll bookkeeping
			if !bo.SleepUntil(th.Clk, expiry+1) {
				return 0, vfs.ErrLeaseTimeout
			}
		}
	}
}

// unlockInode releases the inode lease taken at the given epoch. The clear
// is a CAS against exactly the word we published: if the lease was stolen
// while we ran (we stalled past expiry), the stealer's word is left intact
// — clearing it would hand a third writer a lock the stealer still holds.
//
// A still-live own lease is parked instead of cleared: the word stays in
// NVM and the retained table records it, so the thread's next lock of the
// same inode inside the lease window costs no NVM write at all — one
// renewal per lease window per thread instead of a CAS pair per op (the
// DWOM hold-time fix). An expired one is CAS-cleared.
func (f *FS) unlockInode(th *proc.Thread, m *mount, ino int64, epoch uint8) {
	f.window(th, m, true)
	wprev := th.Clk.SwapWriteClass(uint8(byteflow.ClassInode))
	off := ino*nvm.PageSize + inoLeaseOff
	w := th.Load64Cached(off) // written by this thread at lock time
	tid, ep, expiry := unpackInoLease(w)
	if w != 0 && tid == th.TID&0xffff && uint8(ep) == epoch {
		if expiry > th.Clk.Now() {
			f.sh.retained.Store(ino, w)
		} else {
			th.CAS64(off, w, 0)
		}
	}
	th.Clk.SetWriteClass(wprev)
	f.sh.lockOf(ino).Unlock(th.Clk)
}

// checkLease is the epoch fence consulted immediately before a commit-point
// publish (setInodeSize, mtime): it verifies the thread still holds the
// inode lease at the epoch it acquired. A holder resurrected after a stall
// finds its epoch superseded by a steal (or its lease expired) and gets a
// typed stale-lease error instead of silently publishing over the stealer.
func (f *FS) checkLease(th *proc.Thread, ino int64, epoch uint8) error {
	th.CPU(perfmodel.CPULockAcquire)                 // lease-word validation read
	w := th.Load64Cached(ino*pageSize + inoLeaseOff) // warm: written at lock time
	tid, ep, expiry := unpackInoLease(w)
	if tid != th.TID&0xffff || uint8(ep) != epoch || expiry <= th.Clk.Now() {
		return vfs.ErrStaleLease
	}
	return nil
}

// Directory mutations lock the *hash bucket* a name falls in, not the whole
// directory — the fine-grained locking that lets ZoFS's two-level hash
// directories scale on huge shared directories (Fig. 9's webproxy/varmail).
// Bucket lock keys live in a negative namespace so they never collide with
// inode page numbers in the shared lock table. The bucket's lease word
// conceptually lives in the second-level page; its acquisition cost is
// charged per lock operation.

// bucketKey derives the lock-table key for a name's bucket in a directory.
func bucketKey(dirIno int64, name string) int64 {
	return -(dirIno*dirL1Slots + l1Index(nameHash(name)) + 1)
}

// lockDirBucket write-locks the bucket of name in directory dirIno.
func (f *FS) lockDirBucket(th *proc.Thread, dirIno int64, name string) int64 {
	sp := f.span(th)
	th.CPU(2 * perfmodel.CPULockAcquire) // clock_gettime + bucket lease CAS
	k := bucketKey(dirIno, name)
	t0 := th.Clk.Now()
	f.sh.lockOf(k).Lock(th.Clk)
	if w := th.Clk.Now() - t0; w > 0 {
		sp.LockContend(k, w)
	}
	return k
}

func (f *FS) unlockDirBucket(th *proc.Thread, k int64) {
	th.CPU(perfmodel.CPULockAcquire)
	f.sh.lockOf(k).Unlock(th.Clk)
}

// rlockInode read-locks an inode (readers overlap; no lease write — reads
// are made safe by the atomic 8-byte update discipline of §5.3).
func (f *FS) rlockInode(th *proc.Thread, ino int64) {
	sp := f.span(th)
	th.CPU(perfmodel.CPULockAcquire)
	t0 := th.Clk.Now()
	f.sh.lockOf(ino).RLock(th.Clk)
	if w := th.Clk.Now() - t0; w > 0 {
		sp.LockContend(ino, w)
	}
}

func (f *FS) runlockInode(th *proc.Thread, ino int64) {
	f.sh.lockOf(ino).RUnlock(th.Clk)
}
