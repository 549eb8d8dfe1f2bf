package sem

import (
	"context"
	"fmt"
	"strings"

	"tag/internal/llm"
	"tag/internal/sqldb"
)

// This file implements the semantic operators. Each issues its LM calls
// through CompleteBatch so one logical operator over N rows costs one (or
// a few) batched inference rounds.

// SemFilter keeps the rows for which the instantiated claim is judged
// true. The instruction is a template with "{Column}" placeholders, e.g.
// "{City} is a city in the Silicon Valley region".
func (d *DataFrame) SemFilter(ctx context.Context, m llm.Model, instruction string) (*DataFrame, error) {
	if len(d.rows) == 0 {
		return d, nil
	}
	prompts := make([]string, len(d.rows))
	for i := range d.rows {
		prompts[i] = llm.SemFilterPrompt(d.substitute(instruction, i))
	}
	outs, errs := m.CompleteBatch(ctx, prompts)
	var rows []sqldb.Row
	for i, out := range outs {
		if errs != nil && errs[i] != nil {
			return nil, fmt.Errorf("sem: filter row %d: %w", i, errs[i])
		}
		if strings.EqualFold(strings.TrimSpace(out), "true") {
			rows = append(rows, d.rows[i])
		}
	}
	return &DataFrame{cols: d.cols, rows: rows}, nil
}

// SemFilterDistinct is SemFilter for a claim about one column's value: the
// paper's Appendix C pipeline (`df["City"].unique().sem_filter(...)`, then a
// semi-join back). The instruction's "{col}" placeholder is instantiated
// once per distinct value, in first-seen order, the claims go to the model
// as one batch, and every row whose value was judged true is kept — through
// the same gather / distinct / scatter layer (sqldb.CallMemo) the engine
// puts under LLM_FILTER inside SQL.
func (d *DataFrame) SemFilterDistinct(ctx context.Context, m llm.Model, instruction, col string) (*DataFrame, error) {
	ci := d.colIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("sem: no column %q", col)
	}
	placeholder := "{" + d.cols[ci] + "}"
	memo := sqldb.NewCallMemo(func(ctx context.Context, values [][]sqldb.Value) ([]sqldb.Value, []error) {
		prompts := make([]string, len(values))
		for i, v := range values {
			prompts[i] = llm.SemFilterPrompt(strings.ReplaceAll(instruction, placeholder, v[0].AsText()))
		}
		outs, errs := m.CompleteBatch(ctx, prompts)
		verdicts := make([]sqldb.Value, len(outs))
		for i, out := range outs {
			verdicts[i] = sqldb.Bool(strings.EqualFold(strings.TrimSpace(out), "true"))
		}
		return verdicts, errs
	})
	classes := make([]int, len(d.rows))
	for i, r := range d.rows {
		classes[i] = memo.Add(r[ci : ci+1])
	}
	memo.Flush(ctx)
	var rows []sqldb.Row
	for i, r := range d.rows {
		v, err := memo.At(classes[i])
		if err != nil {
			return nil, fmt.Errorf("sem: filter row %d: %w", i, err)
		}
		if v.AsBool() {
			rows = append(rows, r)
		}
	}
	return &DataFrame{cols: d.cols, rows: rows}, nil
}

// SemTopK ranks rows by how well the named column's text satisfies the
// criterion and returns the best k, ordered best-first. It runs a batched
// quicksort: every recursion level partitions all active segments against
// their pivots in a single CompleteBatch, and only segments overlapping
// the top-k prefix recurse — LOTUS's sem_topk uses the same pivot-based
// strategy. Expected O(log n) batched LM rounds.
func (d *DataFrame) SemTopK(ctx context.Context, m llm.Model, criterion, col string, k int) (*DataFrame, error) {
	ci := d.colIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("sem: no column %q", col)
	}
	if k <= 0 {
		return &DataFrame{cols: d.cols}, nil
	}
	order := make([]int, len(d.rows))
	for i := range order {
		order[i] = i
	}
	// seg is a half-open slice [lo, hi) of `order` still needing sorting.
	type seg struct{ lo, hi int }
	active := []seg{{0, len(order)}}
	for len(active) > 0 {
		// One batch: compare every non-pivot element of every active
		// segment against its segment's pivot.
		type probe struct {
			segIdx int
			pos    int
		}
		var prompts []string
		var probes []probe
		for si, s := range active {
			pivot := order[s.lo]
			for pos := s.lo + 1; pos < s.hi; pos++ {
				prompts = append(prompts, llm.SemComparePrompt(criterion,
					d.rows[order[pos]][ci].AsText(), d.rows[pivot][ci].AsText()))
				probes = append(probes, probe{segIdx: si, pos: pos})
			}
		}
		if len(prompts) == 0 {
			break
		}
		outs, errs := m.CompleteBatch(ctx, prompts)
		beats := make(map[int]bool, len(outs)) // order-position -> beats pivot
		for i, out := range outs {
			if errs != nil && errs[i] != nil {
				return nil, fmt.Errorf("sem: topk comparison: %w", errs[i])
			}
			beats[probes[i].pos] = strings.EqualFold(strings.TrimSpace(out), "a")
		}
		var next []seg
		for _, s := range active {
			pivot := order[s.lo]
			var better, worse []int
			for pos := s.lo + 1; pos < s.hi; pos++ {
				if beats[pos] {
					better = append(better, order[pos])
				} else {
					worse = append(worse, order[pos])
				}
			}
			copy(order[s.lo:], better)
			mid := s.lo + len(better)
			order[mid] = pivot
			copy(order[mid+1:], worse)
			if len(better) > 1 && s.lo < k {
				next = append(next, seg{s.lo, mid})
			}
			if len(worse) > 1 && mid+1 < k {
				next = append(next, seg{mid + 1, s.hi})
			}
		}
		active = next
	}
	if k > len(order) {
		k = len(order)
	}
	rows := make([]sqldb.Row, k)
	for i := 0; i < k; i++ {
		rows[i] = d.rows[order[i]]
	}
	return &DataFrame{cols: d.cols, rows: rows}, nil
}

// SemAgg summarises the named column under the instruction, folding
// hierarchically when the items do not fit the model's context window.
func (d *DataFrame) SemAgg(ctx context.Context, m llm.Model, instruction, col string) (string, error) {
	items, err := d.Strings(col)
	if err != nil {
		return "", err
	}
	return foldSummaries(ctx, m, instruction, items)
}

// SemAggRows summarises whole rows ("all_cols=True" in LOTUS terms): each
// item is the full row serialisation.
func (d *DataFrame) SemAggRows(ctx context.Context, m llm.Model, instruction string) (string, error) {
	items := make([]string, len(d.rows))
	for i := range d.rows {
		items[i] = d.RowString(i)
	}
	return foldSummaries(ctx, m, instruction, items)
}

// foldSummaries runs the hierarchical reduction: chunk items to fit the
// context window, summarise each chunk, recurse over the summaries.
func foldSummaries(ctx context.Context, m llm.Model, instruction string, items []string) (string, error) {
	if len(items) == 0 {
		return "Nothing to summarize.", nil
	}
	budget := m.ContextWindow() * 3 / 4
	for {
		chunks := chunkByTokens(instruction, items, budget)
		if len(chunks) == 1 {
			outs, errs := m.CompleteBatch(ctx, []string{llm.SemAggPrompt(instruction, chunks[0])})
			if errs != nil && errs[0] != nil {
				return "", errs[0]
			}
			return outs[0], nil
		}
		prompts := make([]string, len(chunks))
		for i, ch := range chunks {
			prompts[i] = llm.SemAggPrompt(instruction, ch)
		}
		outs, errs := m.CompleteBatch(ctx, prompts)
		next := make([]string, 0, len(outs))
		for i, out := range outs {
			if errs != nil && errs[i] != nil {
				return "", errs[i]
			}
			next = append(next, out)
		}
		items = next
	}
}

// chunkByTokens groups items so each chunk's prompt stays under the token
// budget. Every chunk holds at least one item (oversized single items are
// passed through and truncated by the model's output cap).
func chunkByTokens(instruction string, items []string, budget int) [][]string {
	base := llm.CountTokens(llm.SemAggPrompt(instruction, nil))
	var chunks [][]string
	var cur []string
	used := base
	for _, it := range items {
		t := llm.CountTokens(it) + 2
		if len(cur) > 0 && used+t > budget {
			chunks = append(chunks, cur)
			cur = nil
			used = base
		}
		cur = append(cur, it)
		used += t
	}
	if len(cur) > 0 {
		chunks = append(chunks, cur)
	}
	return chunks
}

// SemMap applies a per-row transformation instruction to the named column
// and returns the outputs as a new column of TEXT values.
func (d *DataFrame) SemMap(ctx context.Context, m llm.Model, instruction, col string) ([]sqldb.Value, error) {
	items, err := d.Strings(col)
	if err != nil {
		return nil, err
	}
	prompts := make([]string, len(items))
	for i, it := range items {
		prompts[i] = llm.SemMapPrompt(instruction, it)
	}
	outs, errs := m.CompleteBatch(ctx, prompts)
	vals := make([]sqldb.Value, len(outs))
	for i, out := range outs {
		if errs != nil && errs[i] != nil {
			return nil, fmt.Errorf("sem: map row %d: %w", i, errs[i])
		}
		vals[i] = sqldb.Text(out)
	}
	return vals, nil
}

// SemJoin keeps pairs (l, r) of the cross product for which the
// instantiated claim is true. The instruction may reference left columns
// as "{Col}" and right columns as "{right:Col}".
func (d *DataFrame) SemJoin(ctx context.Context, m llm.Model, other *DataFrame, instruction string) (*DataFrame, error) {
	cols := append([]string(nil), d.cols...)
	for _, c := range other.cols {
		cols = append(cols, "right_"+c)
	}
	var prompts []string
	type pair struct{ l, r int }
	var pairs []pair
	for li := range d.rows {
		for ri := range other.rows {
			claim := d.substitute(instruction, li)
			for ci, c := range other.cols {
				claim = strings.ReplaceAll(claim, "{right:"+c+"}", other.rows[ri][ci].AsText())
			}
			prompts = append(prompts, llm.SemFilterPrompt(claim))
			pairs = append(pairs, pair{l: li, r: ri})
		}
	}
	outs, errs := m.CompleteBatch(ctx, prompts)
	var rows []sqldb.Row
	for i, out := range outs {
		if errs != nil && errs[i] != nil {
			return nil, fmt.Errorf("sem: join pair %d: %w", i, errs[i])
		}
		if strings.EqualFold(strings.TrimSpace(out), "true") {
			nr := make(sqldb.Row, 0, len(cols))
			nr = append(nr, d.rows[pairs[i].l]...)
			nr = append(nr, other.rows[pairs[i].r]...)
			rows = append(rows, nr)
		}
	}
	return &DataFrame{cols: cols, rows: rows}, nil
}
