package harness

import "testing"

// TestNeutralDiffExact: the gate compares integers exactly — one virtual
// nanosecond or one op of drift fails it, and so does a cell missing from
// the observers-on run.
func TestNeutralDiffExact(t *testing.T) {
	off := map[string]cellCost{"create": {Ops: 4096, VirtualNS: 4977245}, "DWOL 1T": {Ops: 380, VirtualNS: 250534}}
	same := map[string]cellCost{"create": {Ops: 4096, VirtualNS: 4977245}, "DWOL 1T": {Ops: 380, VirtualNS: 250534}}
	if d := neutralDiff(off, same); len(d) != 0 {
		t.Fatalf("identical runs reported %v", d)
	}
	for name, on := range map[string]map[string]cellCost{
		"1ns":     {"create": {Ops: 4096, VirtualNS: 4977246}, "DWOL 1T": {Ops: 380, VirtualNS: 250534}},
		"1op":     {"create": {Ops: 4096, VirtualNS: 4977245}, "DWOL 1T": {Ops: 381, VirtualNS: 250534}},
		"missing": {"create": {Ops: 4096, VirtualNS: 4977245}},
	} {
		if d := neutralDiff(off, on); len(d) != 1 {
			t.Errorf("%s: want one difference, got %v", name, d)
		}
	}
}
