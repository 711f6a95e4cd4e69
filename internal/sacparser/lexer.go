// Package sacparser implements the lexer and recursive-descent parser
// for the SAC comprehension DSL of the paper:
//
//	tiled(n,m)[ ((i,j), +/v) | ((i,k),a) <- M, ((kk,j),b) <- N,
//	            kk == k, let v = a*b, group by (i,j) ]
//
// It produces the comp package's AST. Its token stream (Stream) also
// carries DIABLO's loop language, whose expressions are SAC's.
package sacparser

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokFloat
	tokString
	tokOp // operators and punctuation
	tokKeyword
)

var keywords = map[string]bool{
	"let": true, "group": true, "by": true, "until": true, "to": true,
	"if": true, "true": true, "false": true,
}

// token is one lexical token with its source position.
type token struct {
	kind tokenKind
	text string
	pos  int // byte offset in the input
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lexer splits the input into tokens.
type lexer struct {
	src    string
	pos    int
	tokens []token
}

// multi-character operators, longest first.
var multiOps = []string{"<-", "==", "!=", "<=", ">=", "&&", "||", "++"}

// lex tokenizes the whole input, returning a syntax error with offset
// on an unexpected character.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.tokens = append(l.tokens, token{kind: tokEOF, pos: l.pos})
			return l.tokens, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(rune(c)):
			l.lexIdent()
		case c >= '0' && c <= '9':
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		case c == '"':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		default:
			if !l.lexOp() {
				return nil, fmt.Errorf("sac: unexpected character %q at offset %d", c, start)
			}
		}
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		if strings.HasPrefix(l.src[l.pos:], "//") {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

func isIdentStart(c rune) bool {
	return unicode.IsLetter(c) || c == '_'
}

func isIdentPart(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_'
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	text := l.src[start:l.pos]
	kind := tokIdent
	if keywords[text] {
		kind = tokKeyword
	}
	l.tokens = append(l.tokens, token{kind: kind, text: text, pos: start})
}

func (l *lexer) lexNumber() error {
	start := l.pos
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.pos++
	}
	isFloat := false
	// A '.' followed by a digit continues a float; `1..` style ranges
	// are not in the grammar.
	if l.pos+1 < len(l.src) && l.src[l.pos] == '.' && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
		isFloat = true
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		save := l.pos
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.pos++
		}
		if l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			isFloat = true
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.pos++
			}
		} else {
			l.pos = save
		}
	}
	kind := tokInt
	if isFloat {
		kind = tokFloat
	}
	l.tokens = append(l.tokens, token{kind: kind, text: l.src[start:l.pos], pos: start})
	return nil
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '"' {
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokString, text: sb.String(), pos: start})
			return nil
		}
		if c == '\\' {
			// Every escape Go's strconv.Quote writes, so a printed
			// string literal reads back as itself.
			r, multibyte, tail, err := strconv.UnquoteChar(l.src[l.pos:], '"')
			if err != nil {
				return fmt.Errorf("sac: bad escape at offset %d", l.pos)
			}
			if multibyte {
				sb.WriteRune(r)
			} else {
				sb.WriteByte(byte(r))
			}
			l.pos = len(l.src) - len(tail)
			continue
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sac: unterminated string at offset %d", start)
}

func (l *lexer) lexOp() bool {
	for _, op := range multiOps {
		if strings.HasPrefix(l.src[l.pos:], op) {
			l.tokens = append(l.tokens, token{kind: tokOp, text: op, pos: l.pos})
			l.pos += len(op)
			return true
		}
	}
	switch c := l.src[l.pos]; c {
	case '(', ')', '[', ']', '{', '}', ',', ';', '+', '-', '*', '/', '%', '<', '>', '=', '|', '!', ':':
		l.tokens = append(l.tokens, token{kind: tokOp, text: string(c), pos: l.pos})
		l.pos++
		return true
	}
	return false
}
