package main

import (
	"strconv"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("run -list: %v", err)
	}
}

func TestRunSelected(t *testing.T) {
	if err := run([]string{"-run", "table1,table2", "-iters", "3"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunCSV(t *testing.T) {
	if err := run([]string{"-run", "fig7", "-csv"}); err != nil {
		t.Fatalf("run -csv: %v", err)
	}
}

func TestRunParallelVerbose(t *testing.T) {
	if err := run([]string{"-run", "fig7,fig11", "-iters", "3", "-parallel", "4", "-v"}); err != nil {
		t.Fatalf("run -parallel 4 -v: %v", err)
	}
}

func TestRunSerialExplicit(t *testing.T) {
	if err := run([]string{"-run", "fig7", "-iters", "3", "-parallel", "1"}); err != nil {
		t.Fatalf("run -parallel 1: %v", err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "fig99"}); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Error("bad flag should fail")
	}
}

func TestZeroIters(t *testing.T) {
	err := run([]string{"-run", "table2", "-iters", "0"})
	if err == nil || !strings.Contains(err.Error(), "-iters 0") {
		t.Errorf("run -iters 0 = %v, want an error naming -iters 0", err)
	}
}

// TestStrayArgumentsRejected: a positional argument fails naming
// itself, instead of being ignored together with every flag after it.
func TestStrayArgumentsRejected(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-list", "fig7"}, "fig7"},
		{[]string{"-run", "fig7", "fig11", "-csv"}, "fig11"},
	}
	for _, c := range cases {
		err := run(c.args)
		if err == nil || !strings.Contains(err.Error(), "unexpected argument "+strconv.Quote(c.want)) {
			t.Errorf("run(%v) = %v, want it to name %q", c.args, err, c.want)
		}
	}
}
