package main

import (
	"strings"
	"testing"
)

// TestLoadMode boots the in-process fabric and drives the load burst
// at reduced scale.
func TestLoadMode(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-shards", "2", "-replicas", "0", "-load", "-clients", "2", "-requests", "8"}, &out)
	if err != nil {
		t.Fatalf("run -load: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"fabric: 2 shards x 0 replicas", "load: OK"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestLoadFailoverMode adds the failover drill: one primary dies after
// the first phase, its replica is promoted, and every acked write must
// still read back.
func TestLoadFailoverMode(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-shards", "2", "-replicas", "1", "-load", "-failover", "-clients", "2", "-requests", "8"}, &out)
	if err != nil {
		t.Fatalf("run -load -failover: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"failover: promoted replica", "1 promotions", "load: OK"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestBadFlags rejects unknown flags and inconsistent combinations.
func TestBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-failover"}, &out); err == nil {
		t.Fatal("-failover without -load accepted")
	}
	if err := run([]string{"-load", "-failover", "-replicas", "0"}, &out); err == nil {
		t.Fatal("-failover without replicas accepted")
	}
}
