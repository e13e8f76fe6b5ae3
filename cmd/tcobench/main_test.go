package main

import (
	"bytes"
	"strings"
	"testing"

	"tcodm/internal/experiments"
)

// An id that names no experiment (R-T3 was one until bench/ superseded it)
// must fail loudly with the ids that exist, not print nothing and exit 0.
func TestUnknownExperimentIsAnError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"R-T1", "R-T3"}, &stdout, &stderr); code == 0 {
		t.Fatalf("exit status 0 for an unknown id; stdout:\n%s", stdout.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("printed tables before rejecting the arguments:\n%s", stdout.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, `"R-T3"`) {
		t.Errorf("message does not name the unknown id: %s", msg)
	}
	for _, e := range experiments.Suite {
		if !strings.Contains(msg, e.ID) {
			t.Errorf("message does not list valid id %s: %s", e.ID, msg)
		}
	}
}
