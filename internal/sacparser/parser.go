package sacparser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/comp"
)

// Builders recognized at the head of a build expression, e.g.
// matrix(n,m)[...], tiled(n,m)[...], rdd[...].
var builderNames = map[string]bool{
	"matrix": true, "vector": true, "coo": true,
	"tiled": true, "tiledvec": true,
	"rdd": true, "list": true, "set": true,
}

// monoid names usable in reductions like min/xs.
var namedMonoids = map[string]bool{
	"min": true, "max": true, "count": true, "avg": true, "sum": true,
}

// Parse parses a full SAC expression and returns its AST.
func Parse(src string) (comp.Expr, error) {
	s, err := Lex(src)
	if err != nil {
		return nil, err
	}
	e, err := s.Expr()
	if err != nil {
		return nil, err
	}
	if !s.Done() {
		return nil, s.p.errf("unexpected %s after expression", s.p.peek())
	}
	return e, nil
}

// MustParse parses or panics; for tests and static queries.
func MustParse(src string) comp.Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

// Stream is a lexed input read a token at a time, for a grammar that
// embeds SAC expressions: it matches its own tokens with Op, Word and
// Ident and hands every expression to Expr. DIABLO's loop language
// (internal/diablo) is read this way, so SAC's keywords are reserved
// there too.
type Stream struct{ p parser }

// Lex tokenizes src.
func Lex(src string) (*Stream, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	return &Stream{parser{toks: toks, src: src}}, nil
}

// Expr parses one expression at the next token.
func (s *Stream) Expr() (comp.Expr, error) { return s.p.parseExpr() }

// Op consumes the operator or punctuation op if it comes next: one
// token, or adjacent tokens that spell it with no space between (the loop
// language's `+=` and `min=` are SAC's `+` and `min`, then `=`).
func (s *Stream) Op(op string) bool {
	pos := s.p.peek().pos
	for i := s.p.i; op != ""; i++ {
		t := s.p.toks[i]
		if t.kind == tokEOF || t.kind == tokString || t.pos != pos || !strings.HasPrefix(op, t.text) {
			return false
		}
		op, pos = op[len(t.text):], pos+len(t.text)
		if op == "" {
			s.p.i = i + 1
		}
	}
	return true
}

// Word consumes the next token if it is the name w.
func (s *Stream) Word(w string) bool {
	if t := s.p.peek(); t.kind != tokIdent || t.text != w {
		return false
	}
	s.p.next()
	return true
}

// Ident consumes and returns the next token if it is a name (not a
// keyword).
func (s *Stream) Ident() (string, bool) {
	t := s.p.peek()
	if t.kind != tokIdent {
		return "", false
	}
	s.p.next()
	return t.text, true
}

// Done reports whether every token has been consumed.
func (s *Stream) Done() bool { return s.p.peek().kind == tokEOF }

// Errorf returns a parse error at the offset of the next token.
func (s *Stream) Errorf(format string, args ...any) error {
	return fmt.Errorf("parse error at offset %d: %s", s.p.peek().pos, fmt.Sprintf(format, args...))
}

type parser struct {
	toks []token
	i    int
	src  string
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) peek2() token {
	if p.i+1 < len(p.toks) {
		return p.toks[p.i+1]
	}
	return token{kind: tokEOF}
}
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sac: parse error at offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *parser) expectOp(op string) error {
	t := p.peek()
	if t.kind != tokOp || t.text != op {
		return p.errf("expected %q, found %s", op, t)
	}
	p.next()
	return nil
}

func (p *parser) atOp(op string) bool {
	t := p.peek()
	return t.kind == tokOp && t.text == op
}

func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokKeyword && t.text == kw
}

// Binary operator precedence tiers, loosest first.
var precedence = [][]string{
	{"||"},
	{"&&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"until", "to"},
	{"+", "-", "++"},
	{"*", "/", "%"},
}

func (p *parser) parseExpr() (comp.Expr, error) { return p.parseBinary(0) }

func (p *parser) parseBinary(level int) (comp.Expr, error) {
	if level >= len(precedence) {
		return p.parseUnary()
	}
	left, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		op, ok := p.matchBinaryOp(level)
		if !ok {
			return left, nil
		}
		right, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		left = comp.BinOp{Op: op, L: left, R: right}
	}
}

func (p *parser) matchBinaryOp(level int) (string, bool) {
	t := p.peek()
	var text string
	switch t.kind {
	case tokOp:
		text = t.text
	case tokKeyword:
		if t.text == "until" || t.text == "to" {
			text = t.text
		} else {
			return "", false
		}
	default:
		return "", false
	}
	for _, op := range precedence[level] {
		if op == text {
			p.next()
			return op, true
		}
	}
	return "", false
}

func (p *parser) parseUnary() (comp.Expr, error) {
	t := p.peek()
	if t.kind == tokOp && (t.text == "-" || t.text == "!") {
		// A reduction like +/x is handled in parsePrimary; unary
		// minus must not swallow `-/x` (not a valid monoid anyway).
		p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return comp.UnaryOp{Op: t.text, E: e}, nil
	}
	return p.parsePostfix()
}

// parsePostfix parses a primary followed by index suffixes V[i,j].
func (p *parser) parsePostfix() (comp.Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.atOp("[") {
		// Distinguish indexing from a trailing comprehension: builders
		// consume their own bracket, so any '[' here is indexing.
		p.next()
		var idxs []comp.Expr
		for {
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			idxs = append(idxs, idx)
			if p.atOp(",") {
				p.next()
				continue
			}
			break
		}
		if err := p.expectOp("]"); err != nil {
			return nil, err
		}
		e = comp.Index{Arr: e, Idxs: idxs}
	}
	return e, nil
}

func (p *parser) parsePrimary() (comp.Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokInt:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.text)
		}
		return comp.Lit{Val: v}, nil
	case t.kind == tokFloat:
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad float %q", t.text)
		}
		return comp.Lit{Val: v}, nil
	case t.kind == tokString:
		p.next()
		return comp.Lit{Val: t.text}, nil
	case t.kind == tokKeyword && (t.text == "true" || t.text == "false"):
		p.next()
		return comp.Lit{Val: t.text == "true"}, nil
	case t.kind == tokKeyword && t.text == "if":
		return p.parseIf()
	case t.kind == tokOp && isReductionOp(t.text) && p.peek2().kind == tokOp && p.peek2().text == "/":
		p.next() // monoid
		p.next() // '/'
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return comp.Reduce{Monoid: t.text, E: e}, nil
	case t.kind == tokIdent && namedMonoids[t.text] && p.peek2().kind == tokOp && p.peek2().text == "/":
		p.next()
		p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		name := t.text
		if name == "sum" {
			name = "+"
		}
		return comp.Reduce{Monoid: name, E: e}, nil
	case t.kind == tokIdent && builderNames[t.text]:
		return p.parseBuild()
	case t.kind == tokIdent:
		p.next()
		if p.atOp("(") {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return comp.Call{Fn: t.text, Args: args}, nil
		}
		return comp.Var{Name: t.text}, nil
	case t.kind == tokOp && t.text == "(":
		return p.parseParenOrTuple()
	case t.kind == tokOp && t.text == "[":
		return p.parseComprehension()
	default:
		return nil, p.errf("unexpected %s", t)
	}
}

func isReductionOp(op string) bool {
	switch op {
	case "+", "*", "&&", "||", "++":
		return true
	}
	return false
}

// parseIf parses if(cond, then, else).
func (p *parser) parseIf() (comp.Expr, error) {
	p.next() // if
	args, err := p.parseArgs()
	if err != nil {
		return nil, err
	}
	if len(args) != 3 {
		return nil, p.errf("if takes 3 arguments, not %d", len(args))
	}
	return comp.IfExpr{Cond: args[0], Then: args[1], Else: args[2]}, nil
}

// parseArgs parses a parenthesized argument list: () or expressions
// separated by commas.
func (p *parser) parseArgs() ([]comp.Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var args []comp.Expr
	for !p.atOp(")") {
		if len(args) > 0 {
			if err := p.expectOp(","); err != nil {
				return nil, err
			}
		}
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
	p.next() // ')'
	return args, nil
}

// parseBuild parses builder(args...)[ comprehension ] or builder[...].
func (p *parser) parseBuild() (comp.Expr, error) {
	name := p.next().text
	var args []comp.Expr
	if p.atOp("(") {
		var err error
		if args, err = p.parseArgs(); err != nil {
			return nil, err
		}
	}
	if !p.atOp("[") {
		// Not a build after all: `matrix` used as a plain identifier
		// or call result. Treat zero-arg as a variable reference.
		if len(args) == 0 {
			return comp.Var{Name: name}, nil
		}
		return nil, p.errf("builder %s(...) must be followed by a comprehension", name)
	}
	body, err := p.parseComprehension()
	if err != nil {
		return nil, err
	}
	return comp.BuildExpr{Builder: name, Args: args, Body: body}, nil
}

// parseParenOrTuple parses (e), (e1, e2, ...), or the unit tuple ().
func (p *parser) parseParenOrTuple() (comp.Expr, error) {
	elems, err := p.parseArgs()
	if err != nil {
		return nil, err
	}
	if len(elems) == 1 {
		return elems[0], nil
	}
	return comp.TupleExpr{Elems: elems}, nil
}

// parseComprehension parses [ e | q1, ..., qn ] or a list literal
// [ e1, ..., en ].
func (p *parser) parseComprehension() (comp.Expr, error) {
	if err := p.expectOp("["); err != nil {
		return nil, err
	}
	if p.atOp("]") {
		// Empty list [] as a comprehension with a false guard.
		p.next()
		return comp.Comprehension{
			Head:  comp.Lit{Val: nil},
			Quals: []comp.Qualifier{comp.Guard{E: comp.Lit{Val: false}}},
		}, nil
	}
	head, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.atOp("]") {
		// Singleton list [e].
		p.next()
		return comp.Comprehension{Head: head}, nil
	}
	if p.atOp(",") {
		// List literal [e1, e2, ...]: no direct AST form, reject for
		// now (the DSL builds lists with comprehensions).
		return nil, p.errf("list literals are not supported; use a comprehension")
	}
	if err := p.expectOp("|"); err != nil {
		return nil, err
	}
	quals, err := p.parseQualifiers()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("]"); err != nil {
		return nil, err
	}
	return comp.Comprehension{Head: head, Quals: quals}, nil
}

func (p *parser) parseQualifiers() ([]comp.Qualifier, error) {
	var quals []comp.Qualifier
	for {
		q, err := p.parseQualifier()
		if err != nil {
			return nil, err
		}
		quals = append(quals, q)
		if p.atOp(",") {
			p.next()
			continue
		}
		return quals, nil
	}
}

func (p *parser) parseQualifier() (comp.Qualifier, error) {
	switch {
	case p.atKeyword("let"):
		p.next()
		pat, err := p.parsePattern()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return comp.LetQual{Pat: pat, E: e}, nil
	case p.atKeyword("group"):
		p.next()
		if !p.atKeyword("by") {
			return nil, p.errf("expected 'by' after 'group'")
		}
		p.next()
		pat, err := p.parsePattern()
		if err != nil {
			return nil, err
		}
		if p.atOp(":") {
			p.next()
			of, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return comp.GroupBy{Pat: pat, Of: of}, nil
		}
		return comp.GroupBy{Pat: pat}, nil
	default:
		// Generator (pattern <- expr) or guard (boolean expr). Try a
		// pattern followed by '<-' first; otherwise backtrack.
		save := p.i
		pat, err := p.parsePattern()
		if err == nil && p.atOp("<-") {
			p.next()
			src, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return comp.Generator{Pat: pat, Src: src}, nil
		}
		p.i = save
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return comp.Guard{E: e}, nil
	}
}

func (p *parser) parsePattern() (comp.Pattern, error) {
	t := p.peek()
	switch {
	case t.kind == tokIdent:
		p.next()
		return comp.PV(t.text), nil
	case t.kind == tokOp && t.text == "(":
		p.next()
		var elems []comp.Pattern
		for !p.atOp(")") {
			sub, err := p.parsePattern()
			if err != nil {
				return nil, err
			}
			elems = append(elems, sub)
			if p.atOp(",") {
				p.next()
			} else {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return comp.PT(elems...), nil
	default:
		return nil, p.errf("expected pattern, found %s", t)
	}
}
