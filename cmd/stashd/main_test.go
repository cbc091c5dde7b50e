package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"stash/internal/api"
)

// TestServeAndShutdown runs the full lifecycle: boot on an ephemeral
// port, answer a health probe and a profile, then cancel the signal
// context and verify the drain path exits cleanly.
func TestServeAndShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-iters", "4"}, pw)
		pw.Close()
	}()

	lines := bufio.NewReader(pr)
	first, err := lines.ReadString('\n')
	if err != nil {
		t.Fatalf("read banner: %v", err)
	}
	addr := strings.TrimSpace(strings.TrimPrefix(first, "stashd: listening on "))
	if addr == first {
		t.Fatalf("unexpected banner %q", first)
	}
	// Keep draining the pipe so the shutdown banners never block run.
	go io.Copy(io.Discard, lines)

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz = %d %s", resp.StatusCode, body)
	}

	resp, err = http.Post("http://"+addr+"/v1/profile", "application/json",
		strings.NewReader(`{"model":"resnet18","instance":"p3.2xlarge"}`))
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile = %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not exit after cancellation")
	}
}

// TestRunFlagError checks that every value the server cannot honor as
// given stops startup before anything listens, as a ConfigError naming
// the flag. Rows with no flag expect no ConfigError: an unknown flag
// fails in the flag parser, and valid values reach the (unusable)
// listen address.
func TestRunFlagError(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		flag string // "" = no ConfigError
	}{
		{"unknown flag", []string{"-badflag"}, ""},
		{"weights at the bounds", []string{"-tenant-weights", fmt.Sprintf("acme=1, b.c-d_e=%d", api.MaxTenantWeight)}, ""},
		{"zero iters", []string{"-iters", "0"}, "iters"},
		{"zero exp-iters", []string{"-exp-iters", "0"}, "exp-iters"},
		{"zero max-concurrent", []string{"-max-concurrent", "0"}, "max-concurrent"},
		{"negative max-concurrent", []string{"-max-concurrent", "-3"}, "max-concurrent"},
		{"zero request-timeout", []string{"-request-timeout", "0"}, "request-timeout"},
		{"negative request-timeout", []string{"-request-timeout", "-1s"}, "request-timeout"},
		{"zero job-workers", []string{"-job-workers", "0"}, "job-workers"},
		{"zero max-jobs", []string{"-max-jobs", "0"}, "max-jobs"},
		{"zero tenant-quota", []string{"-tenant-quota", "0"}, "tenant-quota"},
		{"weight over bound", []string{"-tenant-weights", "acme=841"}, "tenant-weights"},
		{"zero weight", []string{"-tenant-weights", "acme=0"}, "tenant-weights"},
		{"non-integer weight", []string{"-tenant-weights", "acme=x"}, "tenant-weights"},
		{"missing weight", []string{"-tenant-weights", "acme"}, "tenant-weights"},
		{"empty name", []string{"-tenant-weights", "=2"}, "tenant-weights"},
		{"invalid name", []string{"-tenant-weights", "bad name=2"}, "tenant-weights"},
		{"name too long", []string{"-tenant-weights", strings.Repeat("a", 65) + "=2"}, "tenant-weights"},
		{"duplicate name", []string{"-tenant-weights", "acme=2,acme=3"}, "tenant-weights"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-addr", "127.0.0.1:notaport"}, tc.args...)
			err := run(context.Background(), args, io.Discard)
			if err == nil {
				t.Fatal("run accepted the value")
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				if tc.flag != "" {
					t.Fatalf("err = %v, want a ConfigError for -%s", err, tc.flag)
				}
				return
			}
			if ce.Flag != tc.flag || ce.Reason == "" {
				t.Fatalf("err = %#v, want flag %q with a reason", ce, tc.flag)
			}
			if !strings.Contains(err.Error(), "-"+tc.flag) {
				t.Errorf("message %q does not name -%s", err, tc.flag)
			}
		})
	}
}

// TestFlagsDocumented compares the flag table in docs/OPERATIONS.md
// with the real flag set, in both directions: every flag is documented
// with its actual default, and every documented flag exists.
func TestFlagsDocumented(t *testing.T) {
	data, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `-([a-z-]+)` \\| ([^|]*) \\|")
	documented := map[string]string{}
	for _, m := range row.FindAllStringSubmatch(string(data), -1) {
		documented[m[1]] = strings.Trim(strings.TrimSpace(m[2]), "`")
	}
	// Parsing the documented default through a second flag set compares
	// values, not spellings: `60s` documents a default printed as 1m0s.
	parsed := newFlagSet(new(config))
	newFlagSet(new(config)).VisitAll(func(f *flag.Flag) {
		doc, ok := documented[f.Name]
		if !ok {
			t.Errorf("flag -%s is not in the docs/OPERATIONS.md flag table", f.Name)
			return
		}
		delete(documented, f.Name)
		if doc == "GOMAXPROCS" {
			doc = strconv.Itoa(runtime.GOMAXPROCS(0))
		}
		if err := parsed.Set(f.Name, doc); err != nil {
			t.Errorf("-%s: documented default %q does not parse: %v", f.Name, doc, err)
		} else if got := parsed.Lookup(f.Name).Value.String(); got != f.DefValue {
			t.Errorf("-%s: documented default %q, actual %q", f.Name, doc, f.DefValue)
		}
	})
	for name := range documented {
		t.Errorf("docs/OPERATIONS.md documents -%s, which stashd does not have", name)
	}
}

func TestRunListenError(t *testing.T) {
	if err := run(context.Background(), []string{"-addr", "127.0.0.1:notaport"}, io.Discard); err == nil {
		t.Fatal("bad address should fail")
	}
}

// FuzzParseTenantWeights feeds arbitrary -tenant-weights values through
// the parser. It must not panic; a rejection is a ConfigError for the
// flag, and an accepted list obeys the same rules the server applies.
func FuzzParseTenantWeights(f *testing.F) {
	for _, seed := range []string{"", "acme=3", "acme=1, beta=840", "acme=841", "a=1,a=2", "=", ",", "x=+5", "bad name=2"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := parseTenantWeights(s)
		if err != nil {
			var ce *ConfigError
			if !errors.As(err, &ce) || ce.Flag != "tenant-weights" {
				t.Fatalf("error %v is not a tenant-weights ConfigError", err)
			}
			return
		}
		seen := map[string]bool{}
		for _, tw := range got {
			if api.CheckTenantName(tw.name) != nil || tw.weight < 1 || tw.weight > api.MaxTenantWeight || seen[tw.name] {
				t.Fatalf("accepted %+v from %q", tw, s)
			}
			seen[tw.name] = true
		}
	})
}
