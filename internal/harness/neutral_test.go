package harness_test

import (
	"bytes"
	"strings"
	"testing"

	"zofs/internal/harness"
)

// TestRunNeutral runs the observer-neutrality gate at tiny size: every cell
// the gate covers — the ZoFS hot path and the 1-thread FxMark DWOL and MWCL
// cells — must be bit-identical in ops and virtual ns with every observer
// off and all of them on (a mismatch is a hard error inside the run).
func TestRunNeutral(t *testing.T) {
	var b bytes.Buffer
	runAndCheck(t, "neutral", func() (*bytes.Buffer, error) {
		return &b, harness.RunNeutral(&b, tiny())
	}, "neutrality gate: every cell bit-identical")
	for _, cell := range []string{"create", "lookup", "read4k", "DWOL 1T", "MWCL 1T"} {
		found := false
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, cell+" ") {
				found = true
				if !strings.HasSuffix(strings.TrimSpace(line), "true") {
					t.Errorf("cell %s not identical: %q", cell, line)
				}
			}
		}
		if !found {
			t.Errorf("cell %s missing from the gate's table:\n%s", cell, b.String())
		}
	}
}
