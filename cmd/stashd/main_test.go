package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
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
// the flag. Rows with no flag are unknown flags, which the flag parser
// rejects by name: -max-concurrent among them, since every simulation
// now takes a slot of the process's one CPU budget.
func TestRunFlagError(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		flag string // "" = no ConfigError
	}{
		{"unknown flag", []string{"-badflag"}, ""},
		{"zero iters", []string{"-iters", "0"}, "iters"},
		{"zero exp-iters", []string{"-exp-iters", "0"}, "exp-iters"},
		{"stale max-concurrent", []string{"-max-concurrent", "2"}, ""},
		{"zero request-timeout", []string{"-request-timeout", "0"}, "request-timeout"},
		{"negative request-timeout", []string{"-request-timeout", "-1s"}, "request-timeout"},
		{"zero job-workers", []string{"-job-workers", "0"}, "job-workers"},
		{"zero max-jobs", []string{"-max-jobs", "0"}, "max-jobs"},
		{"zero tenant-quota", []string{"-tenant-quota", "0"}, "tenant-quota"},
		{"zero job-ttl", []string{"-job-ttl", "0"}, "job-ttl"},
		{"negative job-ttl", []string{"-job-ttl", "-1s"}, "job-ttl"},
		{"negative drain-timeout", []string{"-drain-timeout", "-1s"}, "drain-timeout"},
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
				if want := "flag provided but not defined: " + tc.args[0]; err.Error() != want {
					t.Fatalf("err = %v, want %q", err, want)
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

// TestStrayArgumentsRejected: a positional argument fails naming
// itself, instead of being ignored together with every flag after it.
func TestStrayArgumentsRejected(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-addr", "127.0.0.1:0", "serve"}, "serve"},
		{[]string{"-addr", "127.0.0.1:0", "-iters", "4", "serve", "-seed", "2"}, "serve"},
	}
	// Cancelled up front: a server that wrongly starts drains at once.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range cases {
		err := run(ctx, c.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "unexpected argument "+strconv.Quote(c.want)) {
			t.Errorf("run(%v) = %v, want it to name %q", c.args, err, c.want)
		}
	}
}
