package sem

import (
	"context"
	"fmt"
	"strings"

	"tag/internal/llm"
)

// The four kernels. Each takes plain values and is the one place its
// operator becomes CompleteBatch calls; errs, where returned, is
// CompleteBatch's (nil, or one entry per input).

// Filter asks the model whether each claim holds, as one batch. A claim is
// a finished sentence (llm.Claim.About): placeholders are the caller's.
func Filter(ctx context.Context, m llm.Model, claims []string) (verdicts []bool, errs []error) {
	if len(claims) == 0 {
		return nil, nil
	}
	prompts := make([]string, len(claims))
	for i, c := range claims {
		prompts[i] = llm.SemFilterPrompt(c)
	}
	outs, errs := m.CompleteBatch(ctx, prompts)
	verdicts = make([]bool, len(outs))
	for i, out := range outs {
		verdicts[i] = strings.EqualFold(strings.TrimSpace(out), "true")
	}
	return verdicts, errs
}

// Map applies the instruction to each item, as one batch.
func Map(ctx context.Context, m llm.Model, instruction string, items []string) (outs []string, errs []error) {
	prompts := make([]string, len(items))
	for i, it := range items {
		prompts[i] = llm.SemMapPrompt(instruction, it)
	}
	return m.CompleteBatch(ctx, prompts)
}

// TopK ranks texts by how well they satisfy the criterion and returns the
// indexes of the best k, best first. It runs a batched quicksort: every
// recursion level partitions all active segments against their pivots in a
// single CompleteBatch, and only segments overlapping the top-k prefix
// recurse — LOTUS's sem_topk uses the same pivot-based strategy. Expected
// O(log n) batched LM rounds.
func TopK(ctx context.Context, m llm.Model, criterion string, texts []string, k int) ([]int, error) {
	if k <= 0 {
		return nil, nil
	}
	order := make([]int, len(texts))
	for i := range order {
		order[i] = i
	}
	// seg is a half-open slice [lo, hi) of `order` still needing sorting.
	type seg struct{ lo, hi int }
	active := []seg{{0, len(order)}}
	for len(active) > 0 {
		// One batch: compare every non-pivot element of every active
		// segment against its segment's pivot, in position order.
		var prompts []string
		for _, s := range active {
			for pos := s.lo + 1; pos < s.hi; pos++ {
				prompts = append(prompts, llm.SemComparePrompt(criterion, texts[order[pos]], texts[order[s.lo]]))
			}
		}
		if len(prompts) == 0 {
			break
		}
		outs, errs := m.CompleteBatch(ctx, prompts)
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("sem: topk comparison: %w", err)
			}
		}
		var next []seg
		for _, s := range active {
			pivot := order[s.lo]
			var better, worse []int
			for pos := s.lo + 1; pos < s.hi; pos++ {
				if strings.EqualFold(strings.TrimSpace(outs[0]), "a") {
					better = append(better, order[pos])
				} else {
					worse = append(worse, order[pos])
				}
				outs = outs[1:]
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
	return order[:min(k, len(order))], nil
}

// Agg summarises items under the instruction, hierarchically when they do
// not fit the model's context window: chunk the items to fit, summarise
// each chunk in one batch, recurse over the summaries.
func Agg(ctx context.Context, m llm.Model, instruction string, items []string) (string, error) {
	if len(items) == 0 {
		return "Nothing to summarize.", nil
	}
	budget := m.ContextWindow() * 3 / 4
	for {
		chunks := chunkByTokens(instruction, items, budget)
		prompts := make([]string, len(chunks))
		for i, ch := range chunks {
			prompts[i] = llm.SemAggPrompt(instruction, ch)
		}
		outs, errs := m.CompleteBatch(ctx, prompts)
		for _, err := range errs {
			if err != nil {
				return "", err
			}
		}
		if len(outs) == 1 {
			return outs[0], nil
		}
		items = outs
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
