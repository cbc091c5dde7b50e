package main

import (
	"strconv"
	"strings"
	"testing"
)

func TestMicrobench(t *testing.T) {
	if testing.Short() {
		t.Skip("full micro sweep in -short mode")
	}
	if err := run([]string{"-iters", "3"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Error("bad flag should fail")
	}
}

// TestItersBelowOneFails: -iters is validated, never clamped to the
// default window.
func TestItersBelowOneFails(t *testing.T) {
	for _, v := range []string{"0", "-3"} {
		err := run([]string{"-iters", v})
		if want := "-iters " + v + ": must be at least 1"; err == nil || err.Error() != want {
			t.Errorf("-iters %s: err = %v, want %q", v, err, want)
		}
	}
}

// TestStrayArgumentsRejected: a positional argument fails naming
// itself, instead of being ignored together with every flag after it.
func TestStrayArgumentsRejected(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-iters", "1", "bogus"}, "bogus"},
		{[]string{"-iters", "1", "bogus", "-seed", "2"}, "bogus"},
	}
	for _, c := range cases {
		err := run(c.args)
		if err == nil || !strings.Contains(err.Error(), "unexpected argument "+strconv.Quote(c.want)) {
			t.Errorf("run(%v) = %v, want it to name %q", c.args, err, c.want)
		}
	}
}
