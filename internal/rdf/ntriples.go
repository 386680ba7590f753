package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// N-Triples-style serialisation. The format is a pragmatic subset of the
// W3C N-Triples syntax extended with an optional weight annotation:
//
//	<s> <p> <o> .
//	<s> <p> "literal" .
//	<s> <p> <o> 0.5 .        # weighted statement
//	# comment
//
// It lets instances exchange ontologies with external tools (R6
// interoperability) without pulling in a full RDF toolkit.

// WriteNTriples serialises the graph.
func (g *Graph) WriteNTriples(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, t := range g.triples {
		s := formatTerm(g.dict.String(t.S), false)
		p := formatTerm(g.dict.String(t.P), false)
		o := formatTerm(g.dict.String(t.O), true)
		var err error
		if t.W == 1 {
			_, err = fmt.Fprintf(bw, "%s %s %s .\n", s, p, o)
		} else {
			_, err = fmt.Fprintf(bw, "%s %s %s %g .\n", s, p, o, t.W)
		}
		if err != nil {
			return fmt.Errorf("rdf: writing triples: %w", err)
		}
	}
	return bw.Flush()
}

// formatTerm writes URIs in angle brackets; objects that look like plain
// literals (contain spaces or quotes) are quoted.
func formatTerm(v string, allowLiteral bool) string {
	if allowLiteral && strings.ContainsAny(v, " \t\"") {
		return strconv.Quote(v)
	}
	return "<" + v + ">"
}

// ReadNTriples parses statements produced by WriteNTriples (plus comments
// and blank lines) into the graph, returning the number of new statements.
func (g *Graph) ReadNTriples(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	added, lineNo := 0, 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, p, o, w, err := parseNTLine(line)
		if err != nil {
			return added, fmt.Errorf("rdf: line %d: %w", lineNo, err)
		}
		if g.AddWeighted(s, p, o, w) {
			added++
		}
	}
	if err := sc.Err(); err != nil {
		return added, fmt.Errorf("rdf: reading triples: %w", err)
	}
	return added, nil
}

func parseNTLine(line string) (s, p, o string, w float64, err error) {
	rest := line
	w = 1
	next := func() (string, error) {
		rest = strings.TrimSpace(rest)
		if rest == "" {
			return "", fmt.Errorf("unexpected end of statement")
		}
		switch rest[0] {
		case '<':
			end := strings.IndexByte(rest, '>')
			if end < 0 {
				return "", fmt.Errorf("unterminated URI")
			}
			term := rest[1:end]
			rest = rest[end+1:]
			return term, nil
		case '"':
			unq, tail, ok := cutQuoted(rest)
			if !ok {
				return "", fmt.Errorf("unterminated literal")
			}
			rest = tail
			return unq, nil
		default:
			sp := strings.IndexAny(rest, " \t")
			if sp < 0 {
				term := rest
				rest = ""
				return term, nil
			}
			term := rest[:sp]
			rest = rest[sp:]
			return term, nil
		}
	}
	if s, err = next(); err != nil {
		return
	}
	if p, err = next(); err != nil {
		return
	}
	if o, err = next(); err != nil {
		return
	}
	rest = strings.TrimSpace(rest)
	rest = strings.TrimSuffix(rest, ".")
	rest = strings.TrimSpace(rest)
	if rest != "" {
		if w, err = strconv.ParseFloat(rest, 64); err != nil {
			err = fmt.Errorf("bad weight %q", rest)
			return
		}
		if !(w >= 0 && w <= 1) {
			err = fmt.Errorf("weight %v outside [0,1]", w)
			return
		}
	}
	return
}

// cutQuoted parses a Go-style quoted string at the head of s.
func cutQuoted(s string) (value, rest string, ok bool) {
	for i := 1; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			continue
		}
		if s[i] == '"' {
			unq, err := strconv.Unquote(s[:i+1])
			if err != nil {
				return "", "", false
			}
			return unq, s[i+1:], true
		}
	}
	return "", "", false
}
