package main

import (
	"bytes"
	"path/filepath"
	"testing"
)

// TestFixtureReport runs the checker on testdata/fixture, a module with a
// used func, a test-only func, an unreferenced method, a fmt.Stringer
// method, a method satisfying a local interface, a func used only by a
// nested consumer module, and an allowlist with a valid, two stale and one
// malformed entry; it pins the exact report and exit status.
func TestFixtureReport(t *testing.T) {
	var out bytes.Buffer
	code := run(filepath.Join("testdata", "fixture"), &out)
	const want = `tools/deadcode/allowlist.txt:3: internal/a.Gone: stale allowlist entry: no such identifier
tools/deadcode/allowlist.txt:4: internal/a.Used: stale allowlist entry: reached from production code
tools/deadcode/allowlist.txt:5: want "<name> (a|b|c) <reason>"
internal/a/a.go:8: internal/a.TestOnly: referenced only from tests
internal/a/a.go:23: internal/a.T.Unreferenced: unreferenced
`
	if code != 1 || out.String() != want {
		t.Fatalf("exit %d, report:\n%s\nwant exit 1, report:\n%s", code, out.String(), want)
	}
}
