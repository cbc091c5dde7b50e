package main

import (
	"strconv"
	"strings"
	"testing"
)

func TestRunDefaults(t *testing.T) {
	if err := run([]string{"-iters", "4"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunFlagErrors checks that bad flag values fail instead of being
// replaced; want, when set, is the flag the error must name.
func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-model", "nope"}, ""},
		{[]string{"-model", "densenet121"}, `"densenet121"`},
		{[]string{"-instance", "m5.large"}, ""},
		{[]string{"-batch", "0"}, ""},
		{[]string{"-badflag"}, ""},
		{[]string{"-iters", "0"}, "-iters 0"},
		{[]string{"-iters", "-3"}, "-iters -3"},
		{[]string{"-selfcheck", "-iters", "0"}, "-iters 0"},
		{[]string{"-nodes", "3"}, "-nodes 3"},
		{[]string{"-nodes", "1"}, "-nodes 1"},
		{[]string{"-nodes", "-2"}, "-nodes -2"},
		{[]string{"-nodes", "2", "-instance", "p3.2xlarge"}, "-nodes 2"},
		{[]string{"-blame", "-nodes", "1"}, "-nodes 1"},
		{[]string{"-blame", "-straggler", "1", "-straggler-scale", "1e300", "-instance", "p3.8xlarge"}, "-straggler-scale 1e+300"},
		{[]string{"-blame", "-straggler", "1", "-straggler-scale", "+Inf", "-instance", "p3.8xlarge"}, "-straggler-scale"},
		{[]string{"-blame", "-straggler", "1", "-straggler-scale", "NaN", "-instance", "p3.8xlarge"}, "-straggler-scale"},
	}
	for _, c := range cases {
		err := run(c.args)
		if err == nil {
			t.Errorf("run(%v) should fail", c.args)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want it to name %q", c.args, err, c.want)
		}
	}
}

func TestRunCleanSlice(t *testing.T) {
	if err := run([]string{"-iters", "4", "-instance", "p3.8xlarge", "-clean-slice"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunOOMSurfaces(t *testing.T) {
	err := run([]string{"-model", "bert-large", "-batch", "64", "-iters", "4"})
	if err == nil || !strings.Contains(err.Error(), "GB") {
		t.Errorf("expected OOM error, got %v", err)
	}
}

func TestRunRecommend(t *testing.T) {
	if err := run([]string{"-recommend", "-iters", "3", "-deadline", "40m"}); err != nil {
		t.Fatalf("run -recommend: %v", err)
	}
}

func TestRunRecommendInfeasible(t *testing.T) {
	if err := run([]string{"-recommend", "-iters", "3", "-budget", "0.001"}); err == nil {
		t.Error("impossible budget should surface an error")
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
		{[]string{"-model", "resnet18", "p3.2xlarge", "-batch", "64"}, "p3.2xlarge"},
	}
	for _, c := range cases {
		err := run(c.args)
		if err == nil || !strings.Contains(err.Error(), "unexpected argument "+strconv.Quote(c.want)) {
			t.Errorf("run(%v) = %v, want it to name %q", c.args, err, c.want)
		}
	}
}
