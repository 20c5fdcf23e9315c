package analyzers

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// buildBody parses a function body (no type-checking; marker calls like
// m1() stay unresolved) and builds its CFG.
func buildBody(t *testing.T, body string) *cfg {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "cfg_test_src.go", src, 0)
	if err != nil {
		t.Fatalf("parsing body: %v\n%s", err, src)
	}
	fd := file.Decls[0].(*ast.FuncDecl)
	return buildCFG(fd.Body, nil)
}

// normalize strips trailing spaces so expected graphs can be written
// without invisible whitespace.
func normalize(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	return strings.Join(lines, "\n")
}

// TestCFGBuilder pins the block structure the flow engine runs on: one
// case per control construct, compared against the dump() rendering
// (marker calls per block, successor lists, entry/exit/panic tags).
func TestCFGBuilder(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string
	}{
		{
			name: "if-else",
			body: `
	m1()
	if c {
		m2()
	} else {
		m3()
	}
	m4()`,
			want: `
b0[m1] entry -> b1,b3
b1[m2] -> b2
b2[m4] -> b4
b3[m3] -> b2
b4[] exit ->`,
		},
		{
			name: "if-no-else",
			body: `
	m1()
	if c {
		m2()
	}
	m3()`,
			want: `
b0[m1] entry -> b1,b2
b1[m2] -> b2
b2[m3] -> b3
b3[] exit ->`,
		},
		{
			name: "for-cond-post",
			body: `
	for i := 0; c; i++ {
		m1()
	}
	m2()`,
			want: `
b0[] entry -> b1
b1[] -> b2,b4
b2[m2] -> b5
b3[] -> b1
b4[m1] -> b3
b5[] exit ->`,
		},
		{
			name: "range",
			body: `
	for _, v := range xs {
		m1()
	}
	m2()`,
			want: `
b0[] entry -> b1
b1[] -> b2,b3
b2[m2] -> b4
b3[m1] -> b1
b4[] exit ->`,
		},
		{
			name: "switch-fallthrough",
			body: `
	switch x {
	case 1:
		m1()
		fallthrough
	case 2:
		m2()
	default:
		m3()
	}
	m4()`,
			want: `
b0[] entry -> b2,b3,b4
b1[m4] -> b6
b2[m1] -> b3
b3[m2] -> b1
b4[m3] -> b1
b6[] exit ->`,
		},
		{
			name: "switch-no-default",
			body: `
	switch {
	case c1:
		m1()
	}
	m2()`,
			want: `
b0[] entry -> b1,b2
b1[m2] -> b3
b2[m1] -> b1
b3[] exit ->`,
		},
		{
			name: "defer-lifo-exit-chain",
			body: `
	m1()
	defer d1()
	defer d2()
	m2()`,
			want: `
b0[m1 d1 d2 m2] entry -> b2
b1[] exit ->
b2[d2] -> b3
b3[d1] -> b1`,
		},
		{
			name: "labeled-break",
			body: `
outer:
	for {
		for {
			m1()
			break outer
		}
	}
	m2()`,
			want: `
b0[] entry -> b1
b1[] -> b3
b2[m2] -> b8
b3[] -> b4
b4[] -> b6
b6[m1] -> b2
b8[] exit ->`,
		},
		{
			name: "goto",
			body: `
	m1()
	goto done
	m2()
done:
	m3()`,
			want: `
b0[m1] entry -> b2
b2[m3] -> b3
b3[] exit ->`,
		},
		{
			name: "panic-block-has-no-successors",
			body: `
	m1()
	if c {
		panic("boom")
	}
	m2()`,
			want: `
b0[m1] entry -> b1,b3
b1[panic] panic ->
b3[m2] -> b4
b4[] exit ->`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := buildBody(t, tc.body)
			got := normalize(g.dump())
			want := strings.TrimPrefix(normalize(tc.want), "\n")
			if got != want {
				t.Errorf("cfg mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// reachableFrom returns the set of blocks reachable from the successors
// of b (excluding paths that never leave b itself unless it is in a
// cycle through its successors).
func reachableFrom(b *cfgBlock) map[*cfgBlock]bool {
	seen := make(map[*cfgBlock]bool)
	var stack []*cfgBlock
	stack = append(stack, b.succs...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, n.succs...)
	}
	return seen
}

// dump renders the reachable graph: one line per block with
// the names of marker calls it contains and its successor list.
func (g *cfg) dump() string {
	reach := map[*cfgBlock]bool{g.entry: true}
	for b := range reachableFrom(g.entry) {
		reach[b] = true
	}
	var lines []string
	for _, b := range g.blocks {
		if !reach[b] {
			continue
		}
		var marks []string
		for _, n := range b.nodes {
			// A range header holds the whole RangeStmt for its transfer
			// function, but only the range expression runs in this block.
			if r, ok := n.(*ast.RangeStmt); ok {
				n = r.X
			}
			ast.Inspect(n, func(x ast.Node) bool {
				if call, ok := x.(*ast.CallExpr); ok {
					if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
						marks = append(marks, id.Name)
					}
				}
				return true
			})
		}
		var succs []int
		for _, s := range b.succs {
			succs = append(succs, s.index)
		}
		sort.Ints(succs)
		parts := make([]string, len(succs))
		for i, s := range succs {
			parts[i] = fmt.Sprintf("b%d", s)
		}
		tag := ""
		switch {
		case b == g.entry && b == g.exit:
			tag = " entry exit"
		case b == g.entry:
			tag = " entry"
		case b == g.exit:
			tag = " exit"
		}
		if b.panics {
			tag += " panic"
		}
		lines = append(lines, fmt.Sprintf("b%d[%s]%s -> %s",
			b.index, strings.Join(marks, " "), tag, strings.Join(parts, ",")))
	}
	return strings.Join(lines, "\n")
}
