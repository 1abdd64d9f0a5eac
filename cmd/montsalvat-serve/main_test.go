package main

import (
	"strings"
	"testing"
)

// TestBadFlags rejects unknown flags.
func TestBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
