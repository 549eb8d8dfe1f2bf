package sqldb

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenType enumerates lexical token classes produced by the lexer.
type tokenType uint8

const (
	tokEOF tokenType = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokOp    // punctuation and operators: ( ) , ; . = != < <= > >= + - * / % ||
	tokParam // ? placeholder
)

// token is one lexical unit with its source position (byte offset).
type token struct {
	typ tokenType
	// text holds the token text. Keywords are upper-cased; identifiers and
	// strings preserve their original spelling (quotes stripped).
	text string
	pos  int
}

// keywords maps each reserved word to itself — the one canonical string every
// token of that keyword carries. Words not listed here lex as identifiers
// even if they look special.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, w := range strings.Fields(`SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT OFFSET AS
		AND OR NOT NULL IS IN LIKE BETWEEN DISTINCT ASC DESC JOIN INNER LEFT RIGHT OUTER
		CROSS ON CREATE TABLE INDEX INSERT INTO VALUES UPDATE SET DELETE DROP PRIMARY KEY
		UNIQUE TRUE FALSE CASE WHEN THEN ELSE END EXISTS CAST UNION ALL IF
		BEGIN COMMIT ROLLBACK TRANSACTION`) {
		m[w] = w
	}
	return m
}()

// keyword returns the canonical spelling of word when it is reserved. Only
// ASCII letters fold: Unicode upper-casing would read the identifiers ſet
// and ın as SET and IN. The folded copy lives on the stack and the map hands
// back its own string, so classifying a word allocates nothing.
func keyword(word string) (string, bool) {
	var buf [len("TRANSACTION")]byte // the longest keyword
	if len(word) > len(buf) {
		return "", false
	}
	for i := 0; i < len(word); i++ {
		buf[i] = word[i]
		if 'a' <= buf[i] && buf[i] <= 'z' {
			buf[i] -= 'a' - 'A'
		}
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}

// lexError reports a lexical error with byte position context.
type lexError struct {
	pos int
	msg string
}

func (e *lexError) Error() string {
	return fmt.Sprintf("sql: lex error at offset %d: %s", e.pos, e.msg)
}

// scan returns the token at or after byte i of src (tokEOF at the end) and
// the offset the next scan starts from. It never panics; malformed input
// yields an error identifying the offending offset. A token's text is a
// slice of the source, a keyword's canonical string or a constant — only a
// quoted literal holding a doubled quote is built — so scanning allocates
// nothing, and the parser holds no more than two tokens at a time.
func scan(src string, i int) (token, int, error) {
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && src[i+1] == '-':
			// Line comment.
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				return token{}, 0, &lexError{pos: i, msg: "unterminated block comment"}
			}
			i += end + 4
		case c == '\'':
			s, next, err := lexString(src, i, '\'')
			return token{typ: tokString, text: s, pos: i}, next, err
		case c == '"' || c == '`':
			// Quoted identifier. An empty one is rejected: nothing can be
			// named "", and it cannot round-trip through rendering.
			s, next, err := lexString(src, i, c)
			if err == nil && s == "" {
				err = &lexError{pos: i, msg: "empty quoted identifier"}
			}
			return token{typ: tokIdent, text: s, pos: i}, next, err
		case c == '[':
			// Bracket-quoted identifier (SQLite/T-SQL style).
			end := strings.IndexByte(src[i+1:], ']')
			if end < 0 {
				return token{}, 0, &lexError{pos: i, msg: "unterminated [identifier]"}
			}
			if end == 0 {
				return token{}, 0, &lexError{pos: i, msg: "empty quoted identifier"}
			}
			return token{typ: tokIdent, text: src[i+1 : i+1+end], pos: i}, i + end + 2, nil
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && src[i+1] >= '0' && src[i+1] <= '9'):
			start := i
			seenDot := false
			seenExp := false
			for i < n {
				d := src[i]
				if d >= '0' && d <= '9' {
					i++
					continue
				}
				if d == '.' && !seenDot && !seenExp {
					seenDot = true
					i++
					continue
				}
				if (d == 'e' || d == 'E') && !seenExp && i > start {
					seenExp = true
					i++
					if i < n && (src[i] == '+' || src[i] == '-') {
						i++
					}
					continue
				}
				break
			}
			// A name glued to a number is not an alias: 0x10 would read as
			// 0 AS x10, shadowing a column of that name.
			if i < n && identPartWidth(src[i:]) > 0 {
				return token{}, 0, &lexError{pos: start, msg: "trailing junk after numeric literal"}
			}
			return token{typ: tokNumber, text: src[start:i], pos: start}, i, nil
		case identStartWidth(src[i:]) > 0:
			// Identifiers decode as UTF-8 (an identifier byte sequence that
			// is not valid UTF-8 is rejected, never smuggled through as
			// Latin-1: case normalisation downstream would mangle it into
			// U+FFFD and the statement would no longer round-trip — found
			// by FuzzParse).
			start := i
			i += identStartWidth(src[i:])
			for i < n {
				w := identPartWidth(src[i:])
				if w == 0 {
					break
				}
				i += w
			}
			word := src[start:i]
			if kw, ok := keyword(word); ok {
				return token{typ: tokKeyword, text: kw, pos: start}, i, nil
			}
			return token{typ: tokIdent, text: word, pos: start}, i, nil
		case c == '?':
			return token{typ: tokParam, text: "?", pos: i}, i + 1, nil
		default:
			op, width, err := lexOp(src, i)
			return token{typ: tokOp, text: op, pos: i}, i + width, err
		}
	}
	return token{typ: tokEOF, text: "", pos: n}, n, nil
}

// lexString scans a quoted literal starting at src[start] (which must be the
// opening quote). Doubled quotes escape themselves. It returns the unescaped
// contents — a slice of src unless a doubled quote has to be collapsed —
// and the index just past the closing quote.
func lexString(src string, start int, quote byte) (string, int, error) {
	var b strings.Builder // written only once a doubled quote is seen
	run := start + 1      // start of the text not yet copied to b
	for i := run; i < len(src); i++ {
		if src[i] != quote {
			continue
		}
		if i+1 < len(src) && src[i+1] == quote {
			b.WriteString(src[run : i+1])
			i++
			run = i + 1
			continue
		}
		if run == start+1 {
			return src[run:i], i + 1, nil
		}
		b.WriteString(src[run:i])
		return b.String(), i + 1, nil
	}
	return "", 0, &lexError{pos: start, msg: "unterminated string literal"}
}

// lexOp scans a one- or two-character operator at src[i].
func lexOp(src string, i int) (string, int, error) {
	two := ""
	if i+1 < len(src) {
		two = src[i : i+2]
	}
	switch two {
	case "<=", ">=", "!=", "<>", "||":
		return two, 2, nil
	}
	switch src[i] {
	case '(', ')', ',', ';', '.', '=', '<', '>', '+', '-', '*', '/', '%':
		return src[i : i+1], 1, nil
	}
	return "", 0, &lexError{pos: i, msg: fmt.Sprintf("unexpected character %q", src[i])}
}

// identStartWidth reports the byte width of a valid identifier-start rune
// at the head of s, or 0. Invalid UTF-8 never starts an identifier.
func identStartWidth(s string) int {
	r, w := utf8.DecodeRuneInString(s)
	if r == utf8.RuneError && w <= 1 {
		return 0
	}
	if r == '_' || unicode.IsLetter(r) {
		return w
	}
	return 0
}

// identPartWidth is identStartWidth for continuation runes ($ and digits
// also allowed).
func identPartWidth(s string) int {
	r, w := utf8.DecodeRuneInString(s)
	if r == utf8.RuneError && w <= 1 {
		return 0
	}
	if r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r) {
		return w
	}
	return 0
}
