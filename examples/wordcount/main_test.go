package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestWordcount runs the default stream on the simulated and the
// in-process real-time wire. The distinct count, the digest of the whole
// key→count table and the top-K list are functions of the word stream
// alone, so both wires print them identically, and the digest is pinned.
func TestWordcount(t *testing.T) {
	var keys []string
	for _, args := range [][]string{nil, {"-wire=local"}} {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("wordcount %v: %v", args, err)
		}
		var key []string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "distinct ") || strings.HasPrefix(line, "digest ") || strings.HasPrefix(line, "  w") {
				key = append(key, line)
			}
		}
		keys = append(keys, strings.Join(key, "\n"))
	}
	if !strings.HasPrefix(keys[0], "distinct 4987\ndigest cf6b10aa1fe96618\n") {
		t.Fatalf("sim wordcount printed\n%s\nwant distinct 4987, digest cf6b10aa1fe96618", keys[0])
	}
	if strings.Count(keys[0], "\n  w") != 10 {
		t.Fatalf("sim wordcount printed\n%s\nwant 10 heavy hitters", keys[0])
	}
	if keys[0] != keys[1] {
		t.Fatalf("sim and local wordcount disagree:\nsim:\n%s\nlocal:\n%s", keys[0], keys[1])
	}
}
