package diablo

import (
	"fmt"

	"repro/internal/comp"
	"repro/internal/sacparser"
)

// The loop language's own grammar is its statements: declarations, loops
// and array updates. It reads them off SAC's token stream and hands every
// expression to SAC's expression grammar, so SAC's keywords are reserved
// words here too. The forms SAC has and loops lack are parse errors
// (sacOnly).

type prser struct{ s *sacparser.Stream }

func (p *prser) errf(format string, args ...any) error {
	return fmt.Errorf("diablo: %w", p.s.Errorf(format, args...))
}

func (p *prser) expect(op string) error {
	if !p.s.Op(op) {
		return p.errf("expected %q", op)
	}
	return nil
}

// reserved are the loop language's own words, which SAC reads as names.
var reserved = map[string]bool{"var": true, "for": true, "do": true, "vector": true, "matrix": true}

// name reads an array or loop variable name.
func (p *prser) name(what string) (string, error) {
	n, ok := p.s.Ident()
	if !ok {
		return "", p.errf("expected %s", what)
	}
	if reserved[n] {
		return "", p.errf("%q is a reserved word, not %s", n, what)
	}
	return n, nil
}

// expr reads one expression with SAC's grammar.
func (p *prser) expr() (comp.Expr, error) {
	e, err := p.s.Expr()
	if err != nil {
		return nil, fmt.Errorf("diablo: %w", err)
	}
	var form string // the outermost offending form: the walk is bottom-up
	comp.MapExpr(e, func(x comp.Expr) comp.Expr {
		if f := sacOnly(x); f != "" {
			form = f
		}
		return x
	})
	if form != "" {
		return nil, p.errf("%s is not part of the loop language: %s", form, e)
	}
	return e, nil
}

// sacOnly names the form of node x if the loop language lacks it, or
// returns "".
func sacOnly(x comp.Expr) string {
	op := ""
	switch x := x.(type) {
	case comp.Lit:
		if _, ok := x.Val.(string); ok {
			return "a string literal"
		}
	case comp.Comprehension:
		return "a comprehension"
	case comp.BuildExpr:
		return "a builder"
	case comp.Reduce:
		return "a reduction"
	case comp.TupleExpr:
		return "a tuple"
	case comp.Var:
		if reserved[x.Name] {
			return fmt.Sprintf("the reserved word %q", x.Name)
		}
	case comp.UnaryOp:
		op = x.Op
	}
	if b, ok := x.(comp.BinOp); ok {
		op = b.Op
	}
	switch op {
	case "!", "++", "until", "to":
		return fmt.Sprintf("the operator %q", op)
	}
	return ""
}

// subscripts reads [e1, ..., en], n >= 1.
func (p *prser) subscripts() ([]comp.Expr, error) {
	if err := p.expect("["); err != nil {
		return nil, err
	}
	var es []comp.Expr
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		es = append(es, e)
		if !p.s.Op(",") {
			break
		}
	}
	if err := p.expect("]"); err != nil {
		return nil, err
	}
	return es, nil
}

// Parse parses a full DIABLO program.
func Parse(src string) (*Program, error) {
	s, err := sacparser.Lex(src)
	if err != nil {
		return nil, fmt.Errorf("diablo: %w", err)
	}
	p := &prser{s: s}
	prog := &Program{}
	for p.s.Word("var") {
		d, err := p.parseDecl()
		if err != nil {
			return nil, err
		}
		prog.Decls = append(prog.Decls, *d)
	}
	for !p.s.Done() {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		prog.Stmts = append(prog.Stmts, s)
	}
	return prog, nil
}

// MustParse parses or panics (tests).
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

// parseDecl reads `var` name : vector[n] | matrix[n, m] [;].
func (p *prser) parseDecl() (*Decl, error) {
	name, err := p.name("array name")
	if err != nil {
		return nil, err
	}
	if err := p.expect(":"); err != nil {
		return nil, err
	}
	kind, want := "vector", 1
	if p.s.Word("matrix") {
		kind, want = "matrix", 2
	} else if !p.s.Word("vector") {
		return nil, p.errf("expected vector or matrix type")
	}
	dims, err := p.subscripts()
	if err != nil {
		return nil, err
	}
	p.s.Op(";")
	if len(dims) != want {
		return nil, p.errf("%s needs %d dimensions, got %d", kind, want, len(dims))
	}
	return &Decl{Name: name, Kind: kind, Dims: dims}, nil
}

func (p *prser) parseStmt() (Stmt, error) {
	if p.s.Word("for") {
		return p.parseFor()
	}
	return p.parseUpdate()
}

// parseFor reads `for` v = lo, hi do (stmt | { stmt* }).
func (p *prser) parseFor() (Stmt, error) {
	v, err := p.name("loop variable")
	if err != nil {
		return nil, err
	}
	if err := p.expect("="); err != nil {
		return nil, err
	}
	lo, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(","); err != nil {
		return nil, err
	}
	hi, err := p.expr()
	if err != nil {
		return nil, err
	}
	if !p.s.Word("do") {
		return nil, p.errf("expected 'do'")
	}
	loop := ForStmt{Var: v, Lo: lo, Hi: hi}
	if !p.s.Op("{") {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		loop.Body = []Stmt{s}
		return loop, nil
	}
	for !p.s.Op("}") {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		loop.Body = append(loop.Body, s)
	}
	return loop, nil
}

// parseUpdate reads A[e1, ..., en] op rhs [;].
func (p *prser) parseUpdate() (Stmt, error) {
	name, err := p.name("array update")
	if err != nil {
		return nil, err
	}
	idxs, err := p.subscripts()
	if err != nil {
		return nil, err
	}
	op := p.updateOp()
	if op == "" {
		return nil, p.errf("expected update operator")
	}
	rhs, err := p.expr()
	if err != nil {
		return nil, err
	}
	p.s.Op(";")
	return UpdateStmt{Array: name, Idxs: idxs, Op: op, Rhs: rhs}, nil
}

// updateOp reads one of :=, +=, *=, min=, max=, or returns "".
func (p *prser) updateOp() string {
	for _, op := range []string{":=", "+=", "*=", "min=", "max="} {
		if p.s.Op(op) {
			return op
		}
	}
	return ""
}
