package kernfs

import (
	"strings"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/nvm"
	"zofs/internal/perfmodel"
	"zofs/internal/proc"
)

// Path-table mutations FuzzResolveReuse applies between the dispatcher's
// parse and the µFS-side resolution.
const (
	mutNone = iota
	mutNew
	mutDelete
	mutRename
	mutKinds
)

// parseOrder lists the prefixes ResolveLongest(p) probes, in order, when
// none of them is registered.
func parseOrder(p string) []string {
	out := []string{p}
	for p != "/" {
		if i := strings.LastIndexByte(p, '/'); i <= 0 {
			p = "/"
		} else {
			p = p[:i]
		}
		out = append(out, p)
	}
	return out
}

// FuzzResolveReuse checks the dispatcher-record handoff: Resolve must
// answer every query exactly as a fresh ResolveLongest would, and take the
// record (one CPUSmallOp instead of a parse) precisely when the path table
// is unchanged since the dispatcher's parse of P and the query D is P or
// lies on P's parse between Q and P.
//
// Coffers sit at the prefixes of P's parse whose bit is set in onP and at
// up to four newline-separated extra paths. The query D is the prefix up
// steps along P's parse with suffix appended. Between the dispatcher's
// parse and the query, mut creates, deletes or renames (to m+"~") a coffer
// at m: the prefix mutUp steps along P's parse with to appended.
//
// The seed corpus in testdata/fuzz/FuzzResolveReuse names the case each
// seed covers, among them the declines for a file that is itself a coffer
// root queried at its parent, a sibling directory, and a republished table.
func FuzzResolveReuse(f *testing.F) {
	f.Fuzz(func(t *testing.T, p string, onP uint8, extra string, up uint8, suffix string, mut, mutUp uint8, to string) {
		dev := nvm.NewDevice(16 << 20)
		if err := Mkfs(dev, MkfsOptions{RootMode: 0o755}); err != nil {
			t.Fatal(err)
		}
		k, err := Mount(dev)
		if err != nil {
			t.Fatal(err)
		}
		th := proc.NewProcess(dev, 0, 0).NewThread()
		newCoffer := func(path string) {
			if strings.HasPrefix(path, "/") && len(path) <= 64 {
				k.CofferNew(th, k.RootCoffer(), path, coffer.TypeZoFS, 0o755, 0, 0, 3)
			}
		}

		if !strings.HasPrefix(p, "/") {
			p = "/" + p // the dispatcher hands the µFS absolute paths only
		}
		order := parseOrder(p)
		for i, c := range order {
			if i < 8 && onP>>i&1 != 0 {
				newCoffer(c)
			}
		}
		for i, c := range strings.SplitN(extra, "\n", 5) {
			if i < 4 {
				newCoffer(c)
			}
		}
		d := order[int(up)%len(order)] + suffix

		id, ok := k.ResolveDispatch(th, p)
		rec := th.Resolved
		if !ok && rec != (proc.Resolution{}) {
			t.Fatalf("failed parse left a record: %+v", rec)
		}
		if ok && (rec.Path != p || rec.ID != id) {
			t.Fatalf("record %+v for parse of %q -> %d", rec, p, id)
		}

		seq := k.paths.seq.Load()
		m := order[int(mutUp)%len(order)] + to
		switch mut % mutKinds {
		case mutNew:
			newCoffer(m)
		case mutDelete:
			if cid, found := k.LookupPath(nil, m); found {
				k.CofferDelete(th, cid)
			}
		case mutRename:
			if _, found := k.LookupPath(nil, m); found && len(m) < 64 {
				k.RenameCoffer(th, m, m+"~")
			}
		}
		republished := k.paths.seq.Load() != seq

		wantID, wantPrefix, wantOK := k.ResolveLongest(nil, d)
		t0 := th.Clk.Now()
		gotID, gotPrefix, gotOK := k.Resolve(th, d)
		reused := th.Clk.Now()-t0 == perfmodel.CPUSmallOp
		if gotID != wantID || gotPrefix != wantPrefix || gotOK != wantOK {
			t.Fatalf("Resolve(%q) = %d %q %v, fresh parse = %d %q %v (record %+v, reused %v)",
				d, gotID, gotPrefix, gotOK, wantID, wantPrefix, wantOK, rec, reused)
		}

		// The record covers P and the probes of P's parse up to Q.
		covered := false
		if ok {
			for _, q := range order {
				if q == d {
					covered = true
				}
				if q == rec.Prefix {
					break
				}
			}
		}
		if want := covered && !republished; reused != want {
			t.Fatalf("Resolve(%q) reused=%v, want %v (record %+v, republished %v)", d, reused, want, rec, republished)
		}
	})
}
