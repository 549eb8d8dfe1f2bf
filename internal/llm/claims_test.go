package llm_test

import (
	"context"
	"strings"
	"testing"

	"tag/internal/core"
	"tag/internal/llm"
	"tag/internal/tagbench"
	"tag/internal/world"
)

// claimLog records the claim of every semantic-filter prompt on its way to
// the model.
type claimLog struct {
	llm.Model
	claims []string
}

func (l *claimLog) note(prompts ...string) {
	for _, p := range prompts {
		if claim, ok := strings.CutPrefix(p, llm.SemFilterPrompt("")); ok {
			l.claims = append(l.claims, claim)
		}
	}
}

func (l *claimLog) Complete(ctx context.Context, prompt string) (string, error) {
	l.note(prompt)
	return l.Model.Complete(ctx, prompt)
}

func (l *claimLog) CompleteBatch(ctx context.Context, prompts []string) ([]string, []error) {
	l.note(prompts...)
	return l.Model.CompleteBatch(ctx, prompts)
}

// TestNoBenchmarkClaimIsGuessed: every claim the hand-written pipelines and
// the LM functions inside SQL make over the 80 questions is a sentence of
// the grammar — none reaches SimLM's coin flip for claims it cannot read,
// which is what a pipeline and the head disagreeing on a sentence's bytes
// silently gets.
func TestNoBenchmarkClaimIsGuessed(t *testing.T) {
	envs, err := core.BuildEnvs()
	if err != nil {
		t.Fatal(err)
	}
	sim := llm.NewSimLM(world.Default(), llm.DefaultProfile(), llm.NewClock(), llm.DefaultCostModel())
	log := &claimLog{Model: sim}
	methods := map[string]core.Method{
		"handwritten_tag": &core.HandwrittenTAG{Model: log},
		"tag_udf":         &core.TAGPipelineMethod{Pipeline: core.Pipeline{Model: log, UseLMUDFs: true}},
	}
	for name, m := range methods {
		log.claims = nil
		for _, q := range tagbench.Queries() {
			// A failed answer (SQL the engine rejects) has still sent its claims.
			_, _ = m.Answer(context.Background(), envs[q.Spec.Domain], q)
		}
		if len(log.claims) == 0 {
			t.Errorf("%s made no claims", name)
		}
		for _, claim := range log.claims {
			if !sim.Recognises(claim) {
				t.Errorf("%s: claim %q is outside the grammar", name, claim)
			}
		}
	}
}
