package spans

import "sync/atomic"

// Snapshot hook: the panels a snapshot carries that the collector itself
// cannot see. zofs-bench -obs publishes enriched snapshots as spans.json and
// spans.prom; zofs-obs top polls them.

// enricher holds the OnSnapshot hook.
var enricher atomic.Pointer[func(*Snapshot)]

// OnSnapshot installs a hook the publisher applies to every snapshot before
// writing — the place harnesses attach device byte-flow and per-coffer
// space rows, which the collector itself cannot see. Nil uninstalls.
func OnSnapshot(f func(*Snapshot)) {
	if f == nil {
		enricher.Store(nil)
		return
	}
	enricher.Store(&f)
}

// Enrich applies the OnSnapshot hook (if any) to s. Snapshot() consumers
// (zofs-bench -obs, zofs-shell's spans dump) call it to pick up the
// byte-flow and space panels.
func Enrich(s *Snapshot) {
	if f := enricher.Load(); f != nil {
		(*f)(s)
	}
}
