package analyzers

import (
	"go/ast"
	"go/types"
)

// This file is the flow-sensitive half of the suite's foundation: an
// intraprocedural control-flow graph over go/ast statements. Each basic
// block is a straight-line run of statements (plus the branch-condition
// expressions evaluated at its end), and the graph has one synthetic
// exit that every return and every fall-off-the-end path reaches through
// the function's defer chain. Calls to panic are modeled as
// non-returning assertions: a panicking block keeps the nodes executed
// before the panic but has no successors, so "on every path" properties
// quantify over paths that complete normally.

// cfgBlock is one basic block.
type cfgBlock struct {
	index int
	// nodes holds the block's statements and trailing branch-condition
	// expressions in source order. Condition expressions appear as bare
	// ast.Expr nodes so transfer functions see their variable uses.
	nodes []ast.Node
	succs []*cfgBlock
	// cond is the branch condition when the block ends in a two-way
	// branch: succs[0] is the true edge, succs[1] the false edge. For
	// switches it holds the tag expression (n-way; no edge refinement).
	cond ast.Expr
	// panics marks a block that ends in a call to panic.
	panics bool
}

// cfg is one function body's control-flow graph.
type cfg struct {
	blocks []*cfgBlock
	entry  *cfgBlock
	exit   *cfgBlock
}

// cfgBuilder carries the construction state.
type cfgBuilder struct {
	g    *cfg
	cur  *cfgBlock
	info *types.Info // may be nil (name-based panic detection only)

	// breakTargets / continueTargets are stacks of enclosing loop and
	// switch targets; entries carry the pending label, if any.
	breakTargets    []branchTarget
	continueTargets []branchTarget
	// fallTargets is the stack of fallthrough targets (next case clause).
	fallTargets []*cfgBlock
	labels      map[string]*cfgBlock
	gotos       []pendingGoto
	// pendingLabel is the label of the labeled statement being built, to
	// be claimed by the loop or switch it precedes.
	pendingLabel string
	defers       []*ast.CallExpr
	// returns collects blocks that exit the function normally and must be
	// wired through the defer chain to the synthetic exit.
	returns []*cfgBlock
}

type branchTarget struct {
	label string
	block *cfgBlock
}

type pendingGoto struct {
	from  *cfgBlock
	label string
}

// buildCFG constructs the control-flow graph of one function body. info
// may be nil; it is used only to recognize the panic builtin precisely.
func buildCFG(body *ast.BlockStmt, info *types.Info) *cfg {
	b := &cfgBuilder{
		g:      &cfg{},
		info:   info,
		labels: make(map[string]*cfgBlock),
	}
	b.g.entry = b.newBlock()
	b.cur = b.g.entry
	b.stmtList(body.List)
	// Falling off the end is a normal exit.
	b.returns = append(b.returns, b.cur)

	b.g.exit = b.newBlock()
	// The defer chain runs in LIFO order on every normal exit.
	head := b.g.exit
	for _, call := range b.defers {
		d := b.newBlock()
		d.nodes = append(d.nodes, ast.Node(call))
		b.link(d, head)
		head = d
	}
	// The chain blocks were created exit-first; reverse the wiring so the
	// last-deferred call runs first.
	if len(b.defers) > 0 {
		head = b.rebuildDeferChain()
	}
	for _, r := range b.returns {
		b.link(r, head)
	}
	for _, g := range b.gotos {
		if t, ok := b.labels[g.label]; ok {
			b.link(g.from, t)
		}
	}
	return b.g
}

// rebuildDeferChain rewires the defer blocks (the most recently created
// len(defers) blocks before exit handling) into LIFO execution order and
// returns the chain head.
func (b *cfgBuilder) rebuildDeferChain() *cfgBlock {
	n := len(b.defers)
	chain := b.g.blocks[len(b.g.blocks)-n:]
	// chain[i] currently holds defers[n-1-i]; relabel so chain[0] holds
	// the last-deferred call and the links run chain[0] -> ... -> exit.
	for i, blk := range chain {
		blk.nodes = []ast.Node{b.defers[n-1-i]}
		blk.succs = nil
	}
	for i := 0; i < n-1; i++ {
		b.link(chain[i], chain[i+1])
	}
	b.link(chain[n-1], b.g.exit)
	return chain[0]
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) link(from, to *cfgBlock) {
	if from.panics {
		return
	}
	from.succs = append(from.succs, to)
}

func (b *cfgBuilder) add(n ast.Node) {
	b.cur.nodes = append(b.cur.nodes, n)
}

// takeLabel consumes the pending label for a loop or switch statement.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// isPanicCall reports whether e is a call to the panic builtin.
func (b *cfgBuilder) isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	if b.info != nil {
		bi, ok := b.info.Uses[id].(*types.Builtin)
		return ok && bi.Name() == "panic"
	}
	return true
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.ExprStmt:
		b.add(s)
		if b.isPanicCall(s.X) {
			b.cur.panics = true
			b.cur = b.newBlock() // unreachable continuation
		}

	case *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.GoStmt, *ast.EmptyStmt:
		b.add(s)

	case *ast.DeferStmt:
		b.add(s)
		b.defers = append(b.defers, s.Call)

	case *ast.ReturnStmt:
		b.add(s)
		b.returns = append(b.returns, b.cur)
		b.cur = b.newBlock()

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		b.cur.cond = s.Cond
		branch := b.cur
		then := b.newBlock()
		b.link(branch, then)
		b.cur = then
		b.stmt(s.Body)
		thenEnd := b.cur
		join := b.newBlock()
		b.link(thenEnd, join)
		if s.Else != nil {
			els := b.newBlock()
			b.link(branch, els)
			b.cur = els
			b.stmt(s.Else)
			b.link(b.cur, join)
		} else {
			b.link(branch, join)
		}
		b.cur = join

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		header := b.newBlock()
		b.link(b.cur, header)
		after := b.newBlock()
		var post *cfgBlock
		if s.Post != nil {
			post = b.newBlock()
			post.nodes = append(post.nodes, ast.Node(s.Post))
			b.link(post, header)
		}
		contTarget := header
		if post != nil {
			contTarget = post
		}
		body := b.newBlock()
		if s.Cond != nil {
			header.nodes = append(header.nodes, ast.Node(s.Cond))
			header.cond = s.Cond
			b.link(header, body)
			b.link(header, after)
		} else {
			b.link(header, body)
		}
		b.breakTargets = append(b.breakTargets, branchTarget{label, after})
		b.continueTargets = append(b.continueTargets, branchTarget{label, contTarget})
		b.cur = body
		b.stmt(s.Body)
		b.link(b.cur, contTarget)
		b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
		b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		header := b.newBlock()
		b.link(b.cur, header)
		// The RangeStmt node itself carries X and the key/value
		// assignment for transfer functions.
		header.nodes = append(header.nodes, ast.Node(s))
		after := b.newBlock()
		body := b.newBlock()
		b.link(header, body)
		b.link(header, after)
		b.breakTargets = append(b.breakTargets, branchTarget{label, after})
		b.continueTargets = append(b.continueTargets, branchTarget{label, header})
		b.cur = body
		b.stmt(s.Body)
		b.link(b.cur, header)
		b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
		b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]
		b.cur = after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
			b.cur.cond = s.Tag
		}
		b.buildSwitch(label, s.Body.List, func(c *ast.CaseClause) []ast.Node {
			nodes := make([]ast.Node, 0, len(c.List))
			for _, e := range c.List {
				nodes = append(nodes, e)
			}
			return nodes
		})

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		if a, ok := s.Assign.(*ast.AssignStmt); ok && len(a.Rhs) == 1 {
			b.cur.cond = a.Rhs[0]
		} else if e, ok := s.Assign.(*ast.ExprStmt); ok {
			b.cur.cond = e.X
		}
		b.buildSwitch(label, s.Body.List, func(*ast.CaseClause) []ast.Node { return nil })

	case *ast.SelectStmt:
		label := b.takeLabel()
		sel := b.cur
		after := b.newBlock()
		b.breakTargets = append(b.breakTargets, branchTarget{label, after})
		// A select with or without a default exits through one clause.
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			blk := b.newBlock()
			b.link(sel, blk)
			if comm.Comm != nil {
				blk.nodes = append(blk.nodes, ast.Node(comm.Comm))
			}
			b.cur = blk
			b.stmtList(comm.Body)
			b.link(b.cur, after)
		}
		b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
		b.cur = after

	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok.String() {
		case "break":
			if t := findTarget(b.breakTargets, label); t != nil {
				b.link(b.cur, t)
			}
		case "continue":
			if t := findTarget(b.continueTargets, label); t != nil {
				b.link(b.cur, t)
			}
		case "goto":
			b.gotos = append(b.gotos, pendingGoto{b.cur, label})
		case "fallthrough":
			if n := len(b.fallTargets); n > 0 && b.fallTargets[n-1] != nil {
				b.link(b.cur, b.fallTargets[n-1])
			}
		}
		b.cur = b.newBlock()

	case *ast.LabeledStmt:
		name := s.Label.Name
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.pendingLabel = name
			b.stmt(s.Stmt)
		default:
			target := b.newBlock()
			b.link(b.cur, target)
			b.labels[name] = target
			b.cur = target
			b.stmt(s.Stmt)
		}

	default:
		// Unknown statement kinds are treated as straight-line.
		b.add(s)
	}
}

// buildSwitch wires the case clauses of a switch or type switch. The
// switch header (b.cur) branches to every clause block; a missing
// default adds a fall-through edge to the join.
func (b *cfgBuilder) buildSwitch(label string, clauses []ast.Stmt, caseNodes func(*ast.CaseClause) []ast.Node) {
	header := b.cur
	after := b.newBlock()
	b.breakTargets = append(b.breakTargets, branchTarget{label, after})

	blocks := make([]*cfgBlock, len(clauses))
	hasDefault := false
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		blocks[i] = b.newBlock()
		blocks[i].nodes = append(blocks[i].nodes, caseNodes(cc)...)
		b.link(header, blocks[i])
		if len(cc.List) == 0 {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.link(header, after)
	}
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		// fallthrough in clause i jumps to clause i+1's block.
		var fall *cfgBlock
		if i+1 < len(blocks) {
			fall = blocks[i+1]
		}
		b.fallTargets = append(b.fallTargets, fall)
		b.cur = blocks[i]
		b.stmtList(cc.Body)
		b.link(b.cur, after)
		b.fallTargets = b.fallTargets[:len(b.fallTargets)-1]
	}
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	b.cur = after
}

func findTarget(stack []branchTarget, label string) *cfgBlock {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}
