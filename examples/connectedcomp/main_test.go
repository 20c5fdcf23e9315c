package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestConnectedComp runs both command lines the program documents. The
// labeling is a function of the seeded graph alone, so the component
// histogram and the delegate count are pinned; simulated time is not.
func TestConnectedComp(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{nil, []string{
			"components: 150 (largest 875 vertices)",
			"top 5 component sizes: [875 1 1 1 1]",
			"delegates: 173, passes: 3,",
		}},
		{[]string{"-scale", "8", "-nodes", "2", "-cores", "2"}, []string{
			"graph: 2^8 vertices, 4096 edges across 4 ranks",
			"components: 28 (largest 229 vertices)",
		}},
	} {
		var out bytes.Buffer
		if err := run(tc.args, &out); err != nil {
			t.Fatalf("connectedcomp %v: %v", tc.args, err)
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("connectedcomp %v output lacks %q:\n%s", tc.args, w, out.String())
			}
		}
	}
}
