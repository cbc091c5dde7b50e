package api

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// TestCaptureDocExamples regenerates the verified example bodies the
// shipped docs embed. It is skipped unless STASHD_CAPTURE is set to a
// directory; then it writes one pretty-printed JSON file per example
// (.txt for raw transcripts like the SSE stream):
//
//	STASHD_CAPTURE=/tmp/captures go test ./internal/api -run CaptureDocExamples
//
// Paste the refreshed bodies into docs/API.md / docs/OPERATIONS.md
// whenever the simulator's calibration changes; docs_test.go fails
// until docs and server agree. ci.sh also runs this against a throwaway
// directory, so the regenerator itself can't rot.
func TestCaptureDocExamples(t *testing.T) {
	dir := os.Getenv("STASHD_CAPTURE")
	if dir == "" {
		t.Skip("set STASHD_CAPTURE=<dir> to regenerate the documented example bodies")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, ex := range docExamples {
		code, body := runDocExample(t, ts.URL, ex)
		if code != ex.wantStatus {
			t.Fatalf("%s: status %d, want %d", ex.name, code, ex.wantStatus)
		}
		if ex.hidden {
			continue
		}
		if ex.raw {
			out := filepath.Join(dir, ex.name+"-response.txt")
			if err := os.WriteFile(out, body, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s", out)
			continue
		}
		var v any
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
		pretty, _ := json.MarshalIndent(v, "", "  ")
		out := filepath.Join(dir, ex.name+"-response.json")
		if err := os.WriteFile(out, append(pretty, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", out)
	}
}
