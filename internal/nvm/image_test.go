package nvm

import (
	"bytes"
	"testing"
)

func TestImageRoundTrip(t *testing.T) {
	d := NewDevice(64 << 20)
	// Touch a few scattered chunks.
	d.WriteNT(nil, 0, []byte("superblock"))
	d.WriteNT(nil, 10<<20, []byte("middle"))
	d.WriteNT(nil, 63<<20, []byte("near-end"))
	d.Store64(nil, 4096, 0xfeedface)

	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Size() != d.Size() {
		t.Fatalf("size %d != %d", d2.Size(), d.Size())
	}
	check := func(off int64, want string) {
		got := make([]byte, len(want))
		d2.ReadNoCharge(off, got)
		if string(got) != want {
			t.Fatalf("at %d: %q != %q", off, got, want)
		}
	}
	check(0, "superblock")
	check(10<<20, "middle")
	check(63<<20, "near-end")
	if v := d2.Load64(nil, 4096); v != 0xfeedface {
		t.Fatalf("Load64 = %x", v)
	}
	// Untouched areas read zero.
	z := make([]byte, 128)
	d2.ReadNoCharge(32<<20, z)
	for _, b := range z {
		if b != 0 {
			t.Fatal("untouched area nonzero after load")
		}
	}
}

func TestImageSparse(t *testing.T) {
	// A 1GB device with one touched page must produce a small image.
	d := New(Config{Size: 1 << 30, TrackPersistence: false})
	d.WriteNT(nil, 512<<20, []byte("sparse"))
	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 8<<20 {
		t.Fatalf("sparse image is %d bytes", buf.Len())
	}
	d2, err := LoadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	d2.ReadNoCharge(512<<20, got)
	if string(got) != "sparse" {
		t.Fatalf("got %q", got)
	}
}

func TestImageRejectsGarbage(t *testing.T) {
	if _, err := LoadImage(bytes.NewReader([]byte("not an image at all........"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// FuzzLoadImage feeds arbitrary bytes to LoadImage, the parser behind
// zofs-fsck, zofs-shell and zofs-obs df: it must return an error, never
// panic, and a device it does accept must survive a save/load round trip.
// Seeds (testdata/fuzz/FuzzLoadImage) cover a valid tiny image, sizes of
// zero and below zero, a truncated chunk and an out-of-range chunk index.
func FuzzLoadImage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := LoadImage(bytes.NewReader(data))
		if err != nil {
			return
		}
		if d.Size() <= 0 || d.Size()%PageSize != 0 || d.Size() > MaxImageSize {
			t.Fatalf("accepted device size %d", d.Size())
		}
		var buf bytes.Buffer
		if err := d.SaveImage(&buf); err != nil {
			t.Fatal(err)
		}
		d2, err := LoadImage(&buf)
		if err != nil {
			t.Fatalf("reload of a saved image: %v", err)
		}
		if d2.Size() != d.Size() {
			t.Fatalf("reload size %d, want %d", d2.Size(), d.Size())
		}
	})
}
