package llm

import (
	"slices"
	"strconv"
	"strings"
	"unsafe"
)

// This file defines the prompt formats shared between the pipelines (which
// build prompts) and SimLM (which recognises them). The Text2SQL and answer
// generation formats follow the TAG paper's Appendix B verbatim; the
// semantic-operator formats follow LOTUS's per-row instruction style.

// Prompt markers used for routing inside SimLM.
const (
	markText2SQL   = "-- Using valid SQLite and understanding External Knowledge, answer the following questions for the tables provided above."
	markAnswerList = "You will be given a list of data points and a question. Use the data points to answer the question. Your answer must be a list of values"
	markAnswerAgg  = "You will be given a list of data points and a question. Use the data points to answer the question. If a value is a string"
	markRerank     = "Rate the relevance of the data point to the question"
	markSemFilter  = "Decide whether the claim is true. Answer True or False only."
	markSemCompare = "Given the criterion, decide which item satisfies it more. Answer A or B only."
	markSemAgg     = "Summarize the following items according to the instruction."
	markSemMap     = "Apply the instruction to the item and respond with the result only."
	markFactHeight = "State the height of "
)

// Text2SQLPrompt renders the BIRD-style query synthesis prompt (Appendix
// B.1): the full schema, an external-knowledge line, and the question.
func Text2SQLPrompt(schemaSQL, question string) string {
	var b strings.Builder
	b.WriteString(schemaSQL)
	b.WriteString("\n-- External Knowledge: None\n")
	b.WriteString(markText2SQL)
	b.WriteString("\n-- ")
	b.WriteString(question)
	b.WriteString("\nSELECT")
	return b.String()
}

// questionFromText2SQL extracts the question line back out of a Text2SQL
// prompt.
func questionFromText2SQL(prompt string) (string, bool) {
	i := strings.Index(prompt, markText2SQL)
	if i < 0 {
		return "", false
	}
	rest := prompt[i+len(markText2SQL):]
	rest = strings.TrimPrefix(rest, "\n-- ")
	q, _, ok := strings.Cut(rest, "\nSELECT")
	return strings.TrimSpace(q), ok
}

// DataPoint is one row serialised for in-context use, in the paper's
// "- col: val" format: Vals[i] is the text of column Cols[i], and the fields
// render in slice order. Every point of one result (or of one RAG table)
// shares one Cols; points of different tables in one prompt each bring
// their own.
type DataPoint struct {
	Cols []string
	Vals []string
}

// Points is what an in-context prompt reads: Len points, point i with the
// fields named Names(i), the text of field j ValLen bytes long and appended
// by AppendVal. A list of points (DataPoints) is one, a single *DataPoint
// another, and a query result read in place a third (internal/core).
type Points interface {
	Len() int
	Names(i int) []string
	ValLen(i, j int) int
	AppendVal(dst []byte, i, j int) []byte
}

// DataPoints reads a list of points as Points.
type DataPoints []DataPoint

func (d DataPoints) Len() int                              { return len(d) }
func (d DataPoints) Names(i int) []string                  { return d[i].Cols }
func (d DataPoints) ValLen(i, j int) int                   { return len(d[i].Vals[j]) }
func (d DataPoints) AppendVal(dst []byte, i, j int) []byte { return append(dst, d[i].Vals[j]...) }

func (p *DataPoint) Len() int                              { return 1 }
func (p *DataPoint) Names(int) []string                    { return p.Cols }
func (p *DataPoint) ValLen(_, j int) int                   { return len(p.Vals[j]) }
func (p *DataPoint) AppendVal(dst []byte, _, j int) []byte { return append(dst, p.Vals[j]...) }

// get reads the named column. Where a name repeats, the last occurrence is
// the one read — what the map this type used to be kept.
func (p DataPoint) get(name string) (string, bool) {
	c := columnNamed(name)
	return c.of(p)
}

func lastIndex(cols []string, name string) int {
	for i := len(cols) - 1; i >= 0; i-- {
		if cols[i] == name {
			return i
		}
	}
	return -1
}

// sameHeader reports whether two points share one Cols (identity, not
// content: producers hand every point of a result the same slice).
func sameHeader(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// column reads one named column across a list of points, resolving the
// name to an index once per header instead of once per point.
type column struct {
	name string
	cols []string
	idx  int
}

// columnNamed starts unresolved: idx -1 is also the right answer for the
// one header a nil cols is "the same" as, a point with no fields.
func columnNamed(name string) column { return column{name: name, idx: -1} }

func (c *column) of(p DataPoint) (string, bool) {
	if !sameHeader(c.cols, p.Cols) {
		c.cols, c.idx = p.Cols, lastIndex(p.Cols, c.name)
	}
	if c.idx < 0 {
		return "", false
	}
	return p.Vals[c.idx], true
}

const (
	answerListHead = markAnswerList + " that is evaluatable in Python. Respond in the format [value1, value2, ..., valueN]. If you are unable to answer the question, respond with []. Respond with only the list of values and nothing else. If a value is a string, it must be enclosed in double quotes.\n\n"
	answerAggHead  = markAnswerAgg + ", it must be enclosed in double quotes.\n\n"
	rerankHead     = markRerank + " on a scale from 0 to 1. Respond with only a number.\n\n"
	questionTail   = "\nQuestion: "
)

// dataPrompt is the one writer behind the three in-context prompts: head,
// the points as "Data Point n:" blocks of "- col: val" lines, and the
// question. The prompt's length is a sum of lengths, so it is sized before
// the first byte is written (and, as strings.Builder's, never written after
// it is the string). A line break inside a value is written as a space: it
// would otherwise read back as prompt structure (a new field or a new point).
func dataPrompt(head string, points Points, question string) string {
	n := len(head) + len(questionTail) + len(question)
	var num [20]byte
	for i := range points.Len() {
		names := points.Names(i)
		n += len("Data Point :\n") + len(strconv.AppendInt(num[:0], int64(i+1), 10)) + len("- : \n")*len(names)
		for j, c := range names {
			n += len(c) + points.ValLen(i, j)
		}
	}
	b := append(make([]byte, 0, n), head...)
	for i := range points.Len() {
		b = append(strconv.AppendInt(append(b, "Data Point "...), int64(i+1), 10), ":\n"...)
		for j, c := range points.Names(i) {
			b = append(append(append(b, "- "...), c...), ": "...)
			at := len(b)
			b = points.AppendVal(b, i, j)
			for k := at; k < len(b); k++ {
				if b[k] == '\n' || b[k] == '\r' {
					b[k] = ' '
				}
			}
			b = append(b, '\n')
		}
	}
	b = append(append(b, questionTail...), question...)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// AnswerPrompt renders the answer-generation prompt for match-based,
// comparison and ranking queries (Appendix B.2, list-format variant).
func AnswerPrompt(points Points, question string) string {
	return dataPrompt(answerListHead, points, question)
}

// AggAnswerPrompt renders the aggregation-variant answer prompt (free-form
// answer, Appendix B.2 second template).
func AggAnswerPrompt(points Points, question string) string {
	return dataPrompt(answerAggHead, points, question)
}

// RerankPrompt renders the 0–1 relevance-scoring prompt used by the
// Retrieval + LM Rank baseline (after STaRK).
func RerankPrompt(point *DataPoint, question string) string {
	return dataPrompt(rerankHead, point, question)
}

// parseAnswerPrompt recovers the data points and question from an answer
// prompt (either variant). Values are substrings of the prompt; all points
// cut theirs from one backing array, and a point whose column names equal
// the previous point's shares its Cols.
func parseAnswerPrompt(prompt string) (points []DataPoint, question string, ok bool) {
	qi := strings.LastIndex(prompt, questionTail)
	if qi < 0 {
		return nil, "", false
	}
	question = strings.TrimSpace(prompt[qi+len(questionTail):])
	body := prompt[:qi]
	nPoints, nFields := strings.Count(body, "Data Point "), strings.Count(body, "\n- ")+1
	points = make([]DataPoint, 0, nPoints)
	vals := make([]string, 0, nFields)
	var cols, header []string // the names of the point being read, and of the one before it
	open, first := false, 0   // a point is being read; its values start at vals[first]
	closePoint := func() {
		if !open {
			return
		}
		if !slices.Equal(cols, header) {
			header, cols = cols, nil
		}
		points = append(points, DataPoint{Cols: header, Vals: vals[first:len(vals):len(vals)]})
		cols, first = cols[:0], len(vals)
	}
	for len(body) > 0 {
		line := body
		if i := strings.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = ""
		}
		line = strings.TrimRight(line, "\r")
		if strings.HasPrefix(line, "Data Point ") {
			closePoint()
			open = true
			continue
		}
		if open && strings.HasPrefix(line, "- ") {
			if k, v, found := strings.Cut(line[2:], ": "); found {
				if cols == nil {
					cols = make([]string, 0, (nFields+nPoints-1)/nPoints)
				}
				cols, vals = append(cols, k), append(vals, v)
			}
		}
	}
	closePoint()
	return points, question, true
}

// SemFilterPrompt renders a LOTUS-style per-row boolean claim. The claim
// must already have its {Column} placeholders substituted.
func SemFilterPrompt(claim string) string {
	return markSemFilter + "\nClaim: " + claim
}

// SemComparePrompt renders a pairwise comparison used by semantic top-k.
func SemComparePrompt(criterion, itemA, itemB string) string {
	return markSemCompare + "\nCriterion: " + criterion +
		"\nItem A: " + itemA + "\nItem B: " + itemB
}

// SemAggPrompt renders a hierarchical-aggregation step over items.
func SemAggPrompt(instruction string, items []string) string {
	var b strings.Builder
	b.WriteString(markSemAgg)
	b.WriteString("\nInstruction: ")
	b.WriteString(instruction)
	b.WriteString("\nItems:\n")
	for _, it := range items {
		b.WriteString("- ")
		b.WriteString(it)
		b.WriteString("\n")
	}
	return b.String()
}

// SemMapPrompt renders a per-row transformation.
func SemMapPrompt(instruction, item string) string {
	return markSemMap + "\nInstruction: " + instruction + "\nItem: " + item
}

// HeightPrompt asks the model for an athlete's height — the single
// fact-lookup call an expert pipeline makes before filtering relationally.
func HeightPrompt(person string) string {
	return markFactHeight + person + " in centimeters. Respond with only a number."
}

// FormatAnswerList renders values in the paper's answer format:
// [v1, v2, ...] with strings double-quoted.
func FormatAnswerList(values []string, quoted []bool) string {
	var b strings.Builder
	b.WriteString("[")
	for i, v := range values {
		if i > 0 {
			b.WriteString(", ")
		}
		if i < len(quoted) && quoted[i] {
			b.WriteString("\"" + v + "\"")
		} else {
			b.WriteString(v)
		}
	}
	b.WriteString("]")
	return b.String()
}

// ParseAnswerList parses a "[v1, v2]"-style answer into raw values with
// quotes stripped. Unparseable answers return nil.
func ParseAnswerList(s string) []string {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return nil
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	if inner == "" {
		return []string{}
	}
	var out []string
	for len(inner) > 0 {
		inner = strings.TrimLeft(inner, " ,")
		if inner == "" {
			break
		}
		if inner[0] == '"' {
			end := strings.IndexByte(inner[1:], '"')
			if end < 0 {
				out = append(out, inner[1:])
				break
			}
			out = append(out, inner[1:1+end])
			inner = inner[2+end:]
			continue
		}
		j := strings.IndexByte(inner, ',')
		if j < 0 {
			out = append(out, strings.TrimSpace(inner))
			break
		}
		out = append(out, strings.TrimSpace(inner[:j]))
		inner = inner[j+1:]
	}
	return out
}
