package server

import (
	"bytes"
	"strings"
)

// indentRun is a comma, a newline and the spaces of the deepest line
// lineBreak serves without building a string.
var indentRun = ",\n" + strings.Repeat(" ", 64)

// lineBreak returns ",\n" and the indentation of a line at depth: the
// "  " prefix plus one "  " per level.
func lineBreak(depth int) string {
	if n := 2 + 2*(depth+1); n <= len(indentRun) {
		return indentRun[:n]
	}
	return ",\n" + strings.Repeat("  ", depth+1)
}

// endsScalar marks the bytes that end a number or a literal: JSON
// whitespace, punctuation and a quote.
var endsScalar = [256]bool{
	' ': true, '\t': true, '\r': true, '\n': true,
	',': true, ':': true, '[': true, ']': true, '{': true, '}': true, '"': true,
}

// appendIndented appends src formatted as json.Indent(dst, src, "  ",
// "  ") formats it. For valid JSON the bytes are the same: one element
// per line at the prefix plus one indent per level, ": " after a key,
// empty containers kept as {} and [], leading whitespace dropped and
// trailing whitespace kept. Unlike json.Indent it copies each string
// whole, from its opening quote to the first quote not escaped, and
// each number or literal as one run, instead of stepping a scanner
// through every byte.
//
// It does not validate. Valid JSON is the precondition: executor
// results come from json.Marshal, and a store hit is checked before it
// enters the cache. On any other input it stays within src and reports
// false when it notices the fault (an unterminated string or container,
// a closer with nothing open, a separator outside a container, or bytes
// after the value); what it appended is then meaningless. It does not
// notice every fault, such as a misplaced comma or a mismatched closer.
func appendIndented(dst, src []byte) ([]byte, bool) {
	// depth is json.Indent's: the containers whose first element has
	// been written. opened marks a container whose line break waits for
	// a first element, so that an empty one stays {} or []. nest counts
	// every open container. br is ",\n" and the indentation at depth.
	depth, nest, opened := 0, 0, false
	br := lineBreak(depth)
	for i := 0; i < len(src); {
		c := src[i]
		if c <= ' ' && (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
			i++
			continue
		}
		if opened && c != '}' && c != ']' {
			opened = false
			depth++
			br = lineBreak(depth)
			dst = append(dst, br[1:]...)
		}
		switch c {
		case '{', '[':
			dst = append(dst, c)
			nest++
			opened = true
			i++
			continue
		case '}', ']':
			if nest == 0 {
				return dst, false
			}
			nest--
			if opened {
				opened = false
			} else {
				depth--
				br = lineBreak(depth)
				dst = append(dst, br[1:]...)
			}
			dst = append(dst, c)
			i++
		case ',':
			if nest == 0 {
				return dst, false
			}
			dst = append(dst, br...)
			i++
			continue
		case ':':
			if nest == 0 {
				return dst, false
			}
			dst = append(dst, ':', ' ')
			i++
			continue
		case '"':
			end := stringEnd(src, i)
			if end < 0 {
				return dst, false
			}
			dst = append(dst, src[i:end]...)
			i = end
		default:
			j := i + 1
			for j < len(src) && !endsScalar[src[j]] {
				j++
			}
			if j == i+1 {
				dst = append(dst, c)
			} else {
				dst = append(dst, src[i:j]...)
			}
			i = j
			// An element followed by its comma, the bulk of a long
			// array, skips a turn of the loop.
			if nest > 0 && i < len(src) && src[i] == ',' {
				dst = append(dst, br...)
				i++
				continue
			}
		}
		if nest == 0 { // the top-level value is complete
			rest := src[i:]
			if len(bytes.TrimLeft(rest, " \t\r\n")) != 0 {
				return dst, false
			}
			return append(dst, rest...), true
		}
	}
	return dst, false
}

// stringEnd returns the index just past the string whose opening quote
// is src[open], or -1 if it is not terminated. A quote ends the string
// when an even number of backslashes precedes it: in a valid string
// each backslash run is whole escape pairs, plus one more that escapes
// the quote when the run is odd.
func stringEnd(src []byte, open int) int {
	for from := open + 1; from < len(src); {
		k := bytes.IndexByte(src[from:], '"')
		if k < 0 {
			return -1
		}
		q := from + k
		b := q
		for b > open+1 && src[b-1] == '\\' {
			b--
		}
		if (q-b)%2 == 0 {
			return q + 1
		}
		from = q + 1
	}
	return -1
}
