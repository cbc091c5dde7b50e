package main

import (
	"strconv"
	"strings"
	"testing"
)

func TestSingleInstance(t *testing.T) {
	if err := run([]string{"-instance", "p2.8xlarge"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestAllInstances(t *testing.T) {
	if err := run([]string{"-all"}); err != nil {
		t.Fatalf("run -all: %v", err)
	}
}

func TestUnknownInstance(t *testing.T) {
	if err := run([]string{"-instance", "t2.micro"}); err == nil {
		t.Error("unknown instance should fail")
	}
}

// TestStrayArgumentsRejected: a positional argument fails naming
// itself, instead of being ignored together with every flag after it.
func TestStrayArgumentsRejected(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"p3.2xlarge"}, "p3.2xlarge"},
		{[]string{"-instance", "p3.8xlarge", "p3.2xlarge"}, "p3.2xlarge"},
	}
	for _, c := range cases {
		err := run(c.args)
		if err == nil || !strings.Contains(err.Error(), "unexpected argument "+strconv.Quote(c.want)) {
			t.Errorf("run(%v) = %v, want it to name %q", c.args, err, c.want)
		}
	}
}
