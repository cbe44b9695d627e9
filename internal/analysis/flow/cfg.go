// Package flow is the intra-procedural control-flow and forward-dataflow
// engine behind qpvet's flow-sensitive analyzers (currently buflease). Like
// the rest of internal/analysis it is standard-library only: the CFG is
// built directly from go/ast syntax, and the solver works over a
// per-variable abstract-state lattice supplied by the analyzer.
//
// The graph is statement-granular. Each Block holds the AST nodes that
// execute consecutively - statements, plus the condition or header
// expressions of the control statement that ends the block - and Succs/Preds
// edges give the possible transfers of control. Branches (if/switch/select),
// loops (for/range, including labeled break/continue and goto), and early
// exits (return, panic) are modeled individually; deferred calls are
// attached to the function's single Exit block in LIFO order, which is
// exactly the approximation a lifetime analysis wants: a deferred
// ctx.Sync() ends the superstep on every path out of the function, after
// every ordinary use.
package flow

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal run of AST nodes with no internal
// control transfer. Nodes appear in execution order.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// Graph is the control-flow graph of one function body. Blocks[0] is the
// entry; Exit is the unique final block, holding the deferred calls.
// Statically unreachable code keeps its blocks (with no Preds), so a
// solver's bottom state flows through it and it reports nothing.
type Graph struct {
	Blocks []*Block
	Exit   *Block
}

// New builds the CFG of a function body.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{labels: make(map[string]*labelInfo)}
	entry := b.newBlock()
	exit := &Block{} // indexed and appended last
	b.exit = exit
	cur := b.stmtList(entry, body.List)
	b.jump(cur, exit)
	// Deferred calls run when the function returns, last defer first.
	for i := len(b.defers) - 1; i >= 0; i-- {
		exit.Nodes = append(exit.Nodes, b.defers[i])
	}
	exit.Index = len(b.blocks)
	b.blocks = append(b.blocks, exit)
	g := &Graph{Blocks: b.blocks, Exit: exit}
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return g
}

type labelInfo struct {
	target    *Block // where a goto (or the labeled statement itself) lands
	brk, cont *Block // break/continue targets when the label names a loop or switch
}

type builder struct {
	blocks []*Block
	exit   *Block
	defers []*ast.CallExpr

	brkStack  []*Block
	contStack []*Block

	labels       map[string]*labelInfo
	pendingLabel *labelInfo // set by LabeledStmt for the statement that follows
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.blocks)}
	b.blocks = append(b.blocks, blk)
	return blk
}

// edge records that control may pass from one block to another.
func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// jump is edge from a possibly-dead block (nil means control already left).
func (b *builder) jump(from, to *Block) {
	if from != nil {
		b.edge(from, to)
	}
}

func (b *builder) label(name string) *labelInfo {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{target: b.newBlock()}
		b.labels[name] = li
	}
	return li
}

// takeLabel consumes the pending label of a loop/switch statement, so its
// break/continue targets can be registered.
func (b *builder) takeLabel() *labelInfo {
	li := b.pendingLabel
	b.pendingLabel = nil
	return li
}

func (b *builder) stmtList(cur *Block, list []ast.Stmt) *Block {
	for _, s := range list {
		cur = b.stmt(cur, s)
	}
	return cur
}

// stmt extends the graph with one statement and returns the block that
// receives control afterwards (nil when control cannot fall through).
func (b *builder) stmt(cur *Block, s ast.Stmt) *Block {
	if cur == nil {
		// Statically unreachable statement: park it in a fresh block with no
		// predecessors so labels inside it still resolve.
		cur = b.newBlock()
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(cur, s.List)

	case *ast.IfStmt:
		b.pendingLabel = nil
		if s.Init != nil {
			cur = b.stmt(cur, s.Init)
		}
		cur.Nodes = append(cur.Nodes, s.Cond)
		then := b.newBlock()
		b.edge(cur, then)
		thenEnd := b.stmt(then, s.Body)
		var elseEnd *Block
		hasElse := s.Else != nil
		if hasElse {
			els := b.newBlock()
			b.edge(cur, els)
			elseEnd = b.stmt(els, s.Else)
		}
		join := b.newBlock()
		if !hasElse {
			b.edge(cur, join)
		}
		b.jump(thenEnd, join)
		b.jump(elseEnd, join)
		return join

	case *ast.ForStmt:
		lbl := b.takeLabel()
		if s.Init != nil {
			cur = b.stmt(cur, s.Init)
		}
		head := b.newBlock()
		b.jump(cur, head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		body := b.newBlock()
		b.edge(head, body)
		post := b.newBlock()
		exitB := b.newBlock()
		if s.Cond != nil {
			b.edge(head, exitB)
		}
		if lbl != nil {
			lbl.brk, lbl.cont = exitB, post
		}
		b.pushLoop(exitB, post)
		bodyEnd := b.stmt(body, s.Body)
		b.popLoop()
		b.jump(bodyEnd, post)
		if s.Post != nil {
			post.Nodes = append(post.Nodes, s.Post)
		}
		b.edge(post, head)
		return exitB

	case *ast.RangeStmt:
		lbl := b.takeLabel()
		head := b.newBlock()
		b.jump(cur, head)
		head.Nodes = append(head.Nodes, s) // the header assigns key/value per iteration
		body := b.newBlock()
		b.edge(head, body)
		exitB := b.newBlock()
		b.edge(head, exitB)
		if lbl != nil {
			lbl.brk, lbl.cont = exitB, head
		}
		b.pushLoop(exitB, head)
		bodyEnd := b.stmt(body, s.Body)
		b.popLoop()
		b.jump(bodyEnd, head)
		return exitB

	case *ast.SwitchStmt:
		lbl := b.takeLabel()
		if s.Init != nil {
			cur = b.stmt(cur, s.Init)
		}
		if s.Tag != nil {
			cur.Nodes = append(cur.Nodes, s.Tag)
		}
		return b.switchClauses(cur, lbl, s.Body.List, nil)

	case *ast.TypeSwitchStmt:
		lbl := b.takeLabel()
		if s.Init != nil {
			cur = b.stmt(cur, s.Init)
		}
		return b.switchClauses(cur, lbl, s.Body.List, s.Assign)

	case *ast.SelectStmt:
		lbl := b.takeLabel()
		exitB := b.newBlock()
		if lbl != nil {
			lbl.brk = exitB
		}
		b.brkStack = append(b.brkStack, exitB)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			caseB := b.newBlock()
			b.edge(cur, caseB)
			if cc.Comm != nil {
				end := b.stmtList(b.stmt(caseB, cc.Comm), cc.Body)
				b.jump(end, exitB)
			} else {
				end := b.stmtList(caseB, cc.Body)
				b.jump(end, exitB)
			}
		}
		b.brkStack = b.brkStack[:len(b.brkStack)-1]
		return exitB

	case *ast.LabeledStmt:
		li := b.label(s.Label.Name)
		b.jump(cur, li.target)
		b.pendingLabel = li
		end := b.stmt(li.target, s.Stmt)
		b.pendingLabel = nil
		return end

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			t := b.top(b.brkStack)
			if s.Label != nil {
				t = b.label(s.Label.Name).brk
			}
			if t != nil {
				b.edge(cur, t)
			}
		case token.CONTINUE:
			t := b.top(b.contStack)
			if s.Label != nil {
				t = b.label(s.Label.Name).cont
			}
			if t != nil {
				b.edge(cur, t)
			}
		case token.GOTO:
			b.edge(cur, b.label(s.Label.Name).target)
		}
		// FALLTHROUGH is consumed by switchClauses; a stray one ends the block.
		return nil

	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, s)
		b.edge(cur, b.exit)
		return nil

	case *ast.DeferStmt:
		// Arguments are evaluated now; the call itself runs at Exit.
		cur.Nodes = append(cur.Nodes, s)
		b.defers = append(b.defers, s.Call)
		return cur

	case *ast.ExprStmt:
		cur.Nodes = append(cur.Nodes, s)
		if isPanicCall(s.X) {
			// Control diverges; deferred calls on the panic path are not
			// modeled (no ordinary use can follow a panic anyway).
			return nil
		}
		return cur

	case *ast.EmptyStmt:
		return cur

	default:
		// Assign, Decl, Go, IncDec, Send, ...: straight-line statements.
		cur.Nodes = append(cur.Nodes, s)
		return cur
	}
}

// switchClauses builds the dispatch and case bodies shared by expression and
// type switches. header, when non-nil, is the type switch's Assign
// statement, re-evaluated in every case block (each case binds its own
// object for the assigned variable).
func (b *builder) switchClauses(cur *Block, lbl *labelInfo, clauses []ast.Stmt, header ast.Stmt) *Block {
	exitB := b.newBlock()
	if lbl != nil {
		lbl.brk = exitB
	}
	b.brkStack = append(b.brkStack, exitB)
	hasDefault := false
	var caseBlocks []*Block
	var caseEnds []*Block
	var fallsThrough []bool
	for _, c := range clauses {
		cc := c.(*ast.CaseClause)
		caseB := b.newBlock()
		b.edge(cur, caseB)
		if header != nil {
			caseB.Nodes = append(caseB.Nodes, header)
		}
		for _, e := range cc.List {
			caseB.Nodes = append(caseB.Nodes, e)
		}
		if cc.List == nil {
			hasDefault = true
		}
		body := cc.Body
		ft := false
		if n := len(body); n > 0 {
			if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				ft = true
				body = body[:n-1]
			}
		}
		end := b.stmtList(caseB, body)
		caseBlocks = append(caseBlocks, caseB)
		caseEnds = append(caseEnds, end)
		fallsThrough = append(fallsThrough, ft)
	}
	for i := range caseEnds {
		if fallsThrough[i] && i+1 < len(caseBlocks) {
			b.jump(caseEnds[i], caseBlocks[i+1])
		} else {
			b.jump(caseEnds[i], exitB)
		}
	}
	if !hasDefault {
		b.edge(cur, exitB)
	}
	b.brkStack = b.brkStack[:len(b.brkStack)-1]
	return exitB
}

func (b *builder) pushLoop(brk, cont *Block) {
	b.brkStack = append(b.brkStack, brk)
	b.contStack = append(b.contStack, cont)
}

func (b *builder) popLoop() {
	b.brkStack = b.brkStack[:len(b.brkStack)-1]
	b.contStack = b.contStack[:len(b.contStack)-1]
}

func (b *builder) top(stack []*Block) *Block {
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}

// isPanicCall reports whether the expression is a direct call to the panic
// builtin. The check is syntactic - flow has no type information - but
// shadowing panic is vanishingly rare and the cost of a miss is only a
// spurious fall-through edge.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
