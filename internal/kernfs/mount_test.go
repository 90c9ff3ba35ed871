package kernfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"zofs/internal/nvm"
)

// rootEntryPage returns the path-table page holding the root coffer's
// entry, which Mkfs writes as the first entry of its bucket's head page.
func rootEntryPage(t *testing.T, k *KernFS) int64 {
	t.Helper()
	pg := k.paths.bucketHead(nil, k.paths.bucketFor("/"))
	if pg == 0 {
		t.Fatal("root path entry has no bucket page")
	}
	return pg
}

func putU64(dev *nvm.Device, off int64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	dev.WriteNT(nil, off, b[:])
}

// mountCorrupt mounts dev with a deadline: a corrupt image must fail with
// ErrInvalid, never panic or hang.
func mountCorrupt(t *testing.T, dev *nvm.Device) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("panic: %v", r)
			}
		}()
		_, err := Mount(dev)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrInvalid) {
			t.Fatalf("Mount of a corrupt image = %v, want ErrInvalid", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Mount of a corrupt image did not return")
	}
}

func TestMountRejectsOutOfRangeBucketHead(t *testing.T) {
	dev, k := newFS(t)
	putU64(dev, k.paths.bucketOff+k.paths.bucketFor("/")*8, 1<<40)
	mountCorrupt(t, dev)
}

func TestMountRejectsPathChainLoop(t *testing.T) {
	dev, k := newFS(t)
	pg := rootEntryPage(t, k)
	putU64(dev, pg*nvm.PageSize, uint64(pg)) // next = itself
	mountCorrupt(t, dev)
}

func TestMountRejectsOutOfRangeCofferID(t *testing.T) {
	dev, k := newFS(t)
	pg := rootEntryPage(t, k)
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(dev.Pages()+5))
	dev.WriteNT(nil, pg*nvm.PageSize+entryPageHdr+8, b[:]) // first entry's coffer ID
	mountCorrupt(t, dev)
}

func TestMountRejectsOutOfRangeSuperblockTables(t *testing.T) {
	for _, off := range []int64{sbAllocPageOff, sbPathPageOff} {
		dev, _ := newFS(t)
		putU64(dev, off, uint64(dev.Pages()))
		mountCorrupt(t, dev)
	}
}
