package api

import (
	"fmt"
	"net/http"
	"net/http/httptest"
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

// FuzzTenantOf feeds arbitrary X-Stash-Tenant headers through tenantOf.
// An accepted name must be label-safe: it renders verbatim inside a
// quoted /metrics label.
func FuzzTenantOf(f *testing.F) {
	for _, seed := range []string{"", "acme", "team-a.b_c", "-lead", "has space", "x\"y", strings.Repeat("a", 65)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		r := httptest.NewRequest(http.MethodGet, "/v2/jobs", nil)
		r.Header[tenantHeader] = []string{name}
		got, aerr := tenantOf(r)
		if aerr != nil {
			if aerr.status != http.StatusBadRequest || CheckTenantName(name) == nil {
				t.Fatalf("rejected %q with %d %s", name, aerr.status, aerr.message)
			}
			return
		}
		if name == "" {
			if got != defaultTenant {
				t.Fatalf("empty header resolved to %q", got)
			}
			return
		}
		if got != name || len(name) > 64 || fmt.Sprintf("%q", name) != `"`+name+`"` {
			t.Fatalf("accepted %q as %q", name, got)
		}
	})
}
