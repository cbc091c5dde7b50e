package api

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
)

// docRequestBodies returns every request body docs/API.md records
// (the verify:*-request blocks): the fuzz seed corpus, so plain
// `go test` replays each documented body through the targets below.
func docRequestBodies(f *testing.F) []string {
	var bodies []string
	blocks := parseVerifiedBlocks(f, "../../docs/API.md")
	for _, name := range sortedKeys(blocks) {
		if strings.HasSuffix(name, "-request") {
			bodies = append(bodies, blocks[name])
		}
	}
	if len(bodies) == 0 {
		f.Fatal("docs/API.md records no request bodies")
	}
	return bodies
}

// FuzzJobCreate feeds arbitrary POST /v2/jobs bodies through the
// shared decoder and the job validator. Neither may panic, and an
// accepted job's class must be its requested type.
func FuzzJobCreate(f *testing.F) {
	for _, b := range docRequestBodies(f) {
		f.Add(b)
	}
	f.Add(`{"type":"profile","profile":{"model":"resnet18","instance":"p3.2xlarge"}}{}`)
	f.Add(`{"type":"experiments","experiments":{"ids":["fig9"]},"priority":10}`)
	f.Fuzz(func(t *testing.T, body string) {
		r := httptest.NewRequest(http.MethodPost, "/v2/jobs", strings.NewReader(body))
		var req JobCreateRequest
		if aerr := decode(httptest.NewRecorder(), r, &req); aerr != nil {
			if aerr.code != errInvalidRequest {
				t.Fatalf("decode error code %q", aerr.code)
			}
			return
		}
		class, aerr := validateJobCreate(req)
		if aerr != nil {
			if aerr.status != http.StatusBadRequest {
				t.Fatalf("validate status %d", aerr.status)
			}
			return
		}
		if class != req.Type {
			t.Fatalf("accepted class %q for type %q", class, req.Type)
		}
	})
}

// sortedKeys returns a string-keyed map's keys in sorted order — the
// repo-wide idiom for deterministic iteration over maps.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
