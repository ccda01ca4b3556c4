package fabric

import (
	"bytes"
	"encoding/json"
)

// lineProbe is the minimal decode of one NDJSON line: enough to tell a
// row (index present; row-level errors included — they are rows) from a
// terminal in-band error line (no index, error object), and to validate
// stream contiguity.
type lineProbe struct {
	Index *int            `json:"index"`
	Error json.RawMessage `json:"error"`
}

// probed is a classified stream line: a row with its plan index, or a
// terminal in-band error with the worker's error object.
type probed struct {
	row    bool
	index  int
	detail json.RawMessage
}

// probeLine classifies one stream line exactly as json.Unmarshal into a
// lineProbe would (FuzzRowProbe pins the agreement). Every row a worker
// writes takes fastProbe's one pass; the full decode is left to the
// lines that do not: in-band errors and malformed input.
func probeLine(line []byte) (probed, error) {
	if idx, ok := fastProbe(line); ok {
		return probed{row: true, index: idx}, nil
	}
	return unmarshalProbe(line)
}

// unmarshalProbe is the full decode behind probeLine's fast path.
func unmarshalProbe(line []byte) (probed, error) {
	var p lineProbe
	if err := json.Unmarshal(line, &p); err != nil {
		return probed{}, err
	}
	if p.Index == nil {
		return probed{detail: p.Error}, nil
	}
	return probed{row: true, index: *p.Index}, nil
}

var indexPrefix = []byte(`{"index":`)

// fastProbe reads N from a line that starts {"index":N, — N a plain
// decimal of at most 18 digits, so it cannot overflow — and in the same
// pass checks that the rest of the line is valid JSON, exactly as
// json.Valid would. It declines whenever json.Unmarshal could read
// another index from the line: a later key that encoding/json matches to
// "index" (a duplicate, or the same name in another case) overrides the
// first, so any string ending in "ndex" under ASCII case folding — no
// other rune folds to n, d, e or x — or any \u escape sends the line to
// the full decode.
func fastProbe(line []byte) (int, bool) {
	if !bytes.HasPrefix(line, indexPrefix) {
		return 0, false
	}
	i := len(indexPrefix)
	n, j := 0, i
	for ; j < len(line) && j-i < 18 && '0' <= line[j] && line[j] <= '9'; j++ {
		n = n*10 + int(line[j]-'0')
	}
	if j == i || j == len(line) || line[j] != ',' || (line[i] == '0' && j-i > 1) {
		return 0, false
	}
	s := jsonScan{b: line, i: j + 1, depth: 1}
	if !s.members() || s.suspect {
		return 0, false
	}
	s.ws()
	return n, s.i == len(line)
}

// maxNestingDepth is encoding/json's nesting bound: json.Valid rejects
// arrays and objects nested deeper than this.
const maxNestingDepth = 10000

// jsonScan is a one-pass JSON validator that accepts exactly what
// json.Valid accepts (FuzzScanMatchesValid pins the agreement). Like
// json.Valid it checks string escapes and control bytes but not UTF-8.
// It sets suspect on a \u escape or on a string whose raw bytes end in
// "ndex" under ASCII case folding: the strings fastProbe declines.
type jsonScan struct {
	b       []byte
	i       int
	depth   int
	suspect bool
}

// strPlain marks the bytes a string scan steps over without a look: all
// but the closing quote, the escape and the control bytes.
var strPlain = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func (s *jsonScan) ws() {
	b, i := s.b, s.i
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	s.i = i
}

// value scans one JSON value starting at s.i (no leading whitespace).
func (s *jsonScan) value() bool {
	if s.i >= len(s.b) {
		return false
	}
	switch c := s.b[s.i]; {
	case c == '"':
		return s.str()
	case c == '{':
		return s.object()
	case c == '[':
		return s.array()
	case c == '-' || '0' <= c && c <= '9':
		return s.number()
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	}
	return false
}

// push enters the array or object whose opening byte is at s.i.
func (s *jsonScan) push() bool {
	s.i++
	s.depth++
	return s.depth <= maxNestingDepth
}

func (s *jsonScan) object() bool {
	if !s.push() {
		return false
	}
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == '}' {
		s.i++
		s.depth--
		return true
	}
	return s.members()
}

// members scans an object's `"key": value` pairs from the first key (or
// the one after a comma) up to and including the closing '}'.
func (s *jsonScan) members() bool {
	for {
		s.ws()
		if s.i >= len(s.b) || s.b[s.i] != '"' || !s.str() {
			return false
		}
		s.ws()
		if s.i >= len(s.b) || s.b[s.i] != ':' {
			return false
		}
		s.i++
		s.ws()
		if !s.value() {
			return false
		}
		s.ws()
		if s.i >= len(s.b) {
			return false
		}
		switch s.b[s.i] {
		case ',':
			s.i++
		case '}':
			s.i++
			s.depth--
			return true
		default:
			return false
		}
	}
}

func (s *jsonScan) array() bool {
	if !s.push() {
		return false
	}
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == ']' {
		s.i++
		s.depth--
		return true
	}
	for {
		s.ws()
		if !s.value() {
			return false
		}
		s.ws()
		if s.i >= len(s.b) {
			return false
		}
		switch s.b[s.i] {
		case ',':
			s.i++
		case ']':
			s.i++
			s.depth--
			return true
		default:
			return false
		}
	}
}

func (s *jsonScan) str() bool {
	b := s.b
	i := s.i + 1 // past the opening quote
	start := i
	for {
		for i < len(b) && strPlain[b[i]] {
			i++
		}
		if i >= len(b) {
			return false
		}
		switch b[i] {
		case '"':
			if i-start >= 4 && foldsToNdex(b[i-4:i]) {
				s.suspect = true
			}
			s.i = i + 1
			return true
		case '\\':
			if i+1 >= len(b) {
				return false
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				s.suspect = true
				if i+5 >= len(b) {
					return false
				}
				for _, h := range b[i+2 : i+6] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return false
					}
				}
				i += 6
			default:
				return false
			}
		default: // a control byte
			return false
		}
	}
}

// foldsToNdex reports whether the four bytes are "ndex" in any ASCII
// case: only 'N' and 'n' (and likewise for the others) map to the
// lower-case letter under |0x20.
func foldsToNdex(b []byte) bool {
	return b[0]|0x20 == 'n' && b[1]|0x20 == 'd' && b[2]|0x20 == 'e' && b[3]|0x20 == 'x'
}

func (s *jsonScan) number() bool {
	b, i := s.b, s.i
	if b[i] == '-' {
		i++
	}
	switch {
	case i >= len(b):
		return false
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return false
		}
		i = j
	}
	s.i = i
	return true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func (s *jsonScan) literal(lit string) bool {
	end := s.i + len(lit)
	if end > len(s.b) || string(s.b[s.i:end]) != lit {
		return false
	}
	s.i = end
	return true
}
