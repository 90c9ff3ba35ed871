package nvm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Device images let the command-line tools (zofs-mkfs, zofs-fsck,
// zofs-shell) persist a simulated NVM DIMM to an ordinary host file and
// reopen it later — the stand-in for a real /dev/pmem device. The format
// stores only materialized chunks: header {magic, size, chunkBytes},
// then {chunkIndex u64, chunkBytes bytes} records, terminated by ^uint64(0).

const imageMagic = 0x5A6F46535F494D47 // "ZoFS_IMG"

// SaveImage writes the device image (sparse: only touched chunks).
func (d *Device) SaveImage(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint64(hdr[0:], imageMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(d.size))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(chunkBytes))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	var idx [8]byte
	for i := range d.chunks {
		c := d.chunks[i].Load()
		if c == nil {
			continue
		}
		binary.LittleEndian.PutUint64(idx[:], uint64(i))
		if _, err := bw.Write(idx[:]); err != nil {
			return err
		}
		if _, err := bw.Write(c[:]); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint64(idx[:], ^uint64(0))
	if _, err := bw.Write(idx[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// MaxImageSize caps the device size an image header may declare: 1 TiB,
// whose chunk table LoadImage allocates up front (2 MiB) before it reads a
// single chunk.
const MaxImageSize = 1 << 40

// LoadImage reads a device image saved by SaveImage. Images are untrusted
// input: a header whose size is not positive, not page-aligned or above
// MaxImageSize, a chunk index out of range and a truncated stream are
// errors, never panics.
func LoadImage(r io.Reader) (*Device, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(hdr[0:]) != imageMagic {
		return nil, fmt.Errorf("nvm: not a device image")
	}
	size := binary.LittleEndian.Uint64(hdr[8:])
	if size == 0 || size%PageSize != 0 || size > MaxImageSize {
		return nil, fmt.Errorf("nvm: image device size %d invalid (want a positive multiple of %d up to %d)", size, PageSize, int64(MaxImageSize))
	}
	if cb := binary.LittleEndian.Uint64(hdr[16:]); cb != chunkBytes {
		return nil, fmt.Errorf("nvm: image chunk size %d unsupported", cb)
	}
	d := New(Config{Size: int64(size), TrackPersistence: true})
	var idx [8]byte
	for {
		if _, err := io.ReadFull(br, idx[:]); err != nil {
			return nil, err
		}
		i := binary.LittleEndian.Uint64(idx[:])
		if i == ^uint64(0) {
			return d, nil
		}
		if i >= uint64(len(d.chunks)) {
			return nil, fmt.Errorf("nvm: image chunk %d out of range", i)
		}
		c := new(chunk)
		if _, err := io.ReadFull(br, c[:]); err != nil {
			return nil, err
		}
		d.chunks[i].Store(c)
	}
}
