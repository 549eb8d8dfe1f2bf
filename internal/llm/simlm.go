package llm

import (
	"context"
	"fmt"
	"strings"

	"tag/internal/world"
)

// SimLM is the deterministic simulated language model. It recognises the
// prompt formats in prompts.go and routes each to a task head:
//
//	Text2SQL prompt      → query synthesis (text2sql.go)
//	answer prompts       → in-context question answering (answer.go)
//	rerank prompt        → relevance scoring (answer.go)
//	semantic-op prompts  → claim judgement / comparison / summarisation
//	                       (semantic.go)
//	anything else        → a generic freeform reply
//
// Every call charges the virtual clock through the cost model; batched
// calls share overhead and decode time, which is what gives semantic-
// operator pipelines their latency edge.
type SimLM struct {
	statsRecorder
	profile Profile
	view    *View
	clock   *Clock
	cost    CostModel
}

// SQLCapabilities says what the engine a synthesised query will run on can
// do. LMUDFs lets query synthesis emit LM UDFs (LLM_FILTER/LLM_SCORE) for
// reasoning clauses — the "database API executes LM UDFs within SQL" design
// point of §2.1; off for the plain Text2SQL baselines. It is a property of
// the request, not of the model — one model serves requests against
// different engines at once — so it travels on the request's context.
type SQLCapabilities struct {
	LMUDFs bool
}

type sqlCapabilitiesKey struct{}

// WithSQLCapabilities returns a context whose synthesis calls may write
// for an engine with the given capabilities.
func WithSQLCapabilities(ctx context.Context, c SQLCapabilities) context.Context {
	return context.WithValue(ctx, sqlCapabilitiesKey{}, c)
}

func sqlCapabilities(ctx context.Context) SQLCapabilities {
	c, _ := ctx.Value(sqlCapabilitiesKey{}).(SQLCapabilities)
	return c
}

// NewSimLM builds a simulated model over a world with the given
// fallibility profile, clock and cost model. A nil clock gets a private
// one; a zero cost model gets the default.
func NewSimLM(w *world.World, p Profile, clock *Clock, cost CostModel) *SimLM {
	if clock == nil {
		clock = NewClock()
	}
	if cost.PrefillTPS == 0 {
		cost = DefaultCostModel()
	}
	return &SimLM{
		profile: p,
		view:    NewView(w, p),
		clock:   clock,
		cost:    cost,
	}
}

// Name implements Model.
func (m *SimLM) Name() string { return m.profile.Name }

// ContextWindow implements Model.
func (m *SimLM) ContextWindow() int { return m.profile.ContextWindow }

// Clock exposes the virtual clock for latency measurement.
func (m *SimLM) Clock() *Clock { return m.clock }

// View exposes the model's knowledge view (used by ablation tests).
func (m *SimLM) View() *View { return m.view }

// Profile returns the fallibility profile.
func (m *SimLM) Profile() Profile { return m.profile }

// Complete implements Model: route, generate, charge the clock.
func (m *SimLM) Complete(ctx context.Context, prompt string) (string, error) {
	pt := CountTokens(prompt)
	if pt > m.profile.ContextWindow {
		// The serving engine processes (and bills) a full window of prompt
		// tokens before rejecting — context-length failures are slow, which
		// is why the paper's Text2SQL + LM baseline is the slowest method.
		m.clock.Advance(m.cost.Overhead + float64(m.profile.ContextWindow)/m.cost.PrefillTPS)
		return "", ErrContextLength
	}
	out, err := m.route(ctx, prompt)
	ot := CountTokens(out)
	if ot > m.profile.MaxOutputTokens {
		out = TruncateToTokens(out, m.profile.MaxOutputTokens)
		ot = m.profile.MaxOutputTokens
	}
	m.clock.Advance(m.cost.CallSeconds(pt, ot))
	m.recordCall(pt, ot)
	return out, err
}

// CompleteBatch implements Model with vLLM-style batch amortisation.
func (m *SimLM) CompleteBatch(ctx context.Context, prompts []string) ([]string, []error) {
	outs := make([]string, len(prompts))
	var errs []error
	promptToks := make([]int, 0, len(prompts))
	outToks := make([]int, 0, len(prompts))
	totalPT, totalOT := 0, 0
	for i, p := range prompts {
		pt := CountTokens(p)
		if pt > m.profile.ContextWindow {
			if errs == nil {
				errs = make([]error, len(prompts))
			}
			errs[i] = ErrContextLength
			promptToks = append(promptToks, m.profile.ContextWindow)
			outToks = append(outToks, 0)
			continue
		}
		out, err := m.route(ctx, p)
		if err != nil {
			if errs == nil {
				errs = make([]error, len(prompts))
			}
			errs[i] = err
		}
		ot := CountTokens(out)
		if ot > m.profile.MaxOutputTokens {
			out = TruncateToTokens(out, m.profile.MaxOutputTokens)
			ot = m.profile.MaxOutputTokens
		}
		outs[i] = out
		promptToks = append(promptToks, pt)
		outToks = append(outToks, ot)
		totalPT += pt
		totalOT += ot
	}
	m.clock.Advance(m.cost.BatchSeconds(promptToks, outToks))
	m.recordBatch(len(prompts), totalPT, totalOT)
	return outs, errs
}

// route dispatches a prompt to its task head.
func (m *SimLM) route(ctx context.Context, prompt string) (string, error) {
	switch {
	case strings.Contains(prompt, markText2SQL), strings.Contains(prompt, markText2SQLRetrieve):
		return m.text2SQL(prompt, sqlCapabilities(ctx))
	case strings.HasPrefix(prompt, markAnswerList):
		return m.answerList(prompt)
	case strings.HasPrefix(prompt, markAnswerAgg):
		return m.answerAggregation(prompt)
	case strings.HasPrefix(prompt, markRerank):
		return m.rerank(prompt)
	case strings.HasPrefix(prompt, markSemFilter):
		return m.semFilter(prompt)
	case strings.HasPrefix(prompt, markSemCompare):
		return m.semCompare(prompt)
	case strings.HasPrefix(prompt, markSemAgg):
		return m.semAggregate(prompt)
	case strings.HasPrefix(prompt, markSemMap):
		return m.semMap(prompt)
	case strings.HasPrefix(prompt, markFactHeight):
		return m.factHeight(prompt)
	default:
		return m.freeform(prompt)
	}
}

// factHeight answers a direct height lookup from parametric knowledge.
func (m *SimLM) factHeight(prompt string) (string, error) {
	person := strings.TrimPrefix(prompt, markFactHeight)
	person, _, _ = strings.Cut(person, " in centimeters")
	return fmtFloat(m.heightCM(person)), nil
}

// heightCM is the height the model believes an athlete has: the recalled
// one, else a plausible hallucination (the model never says "I don't know"
// to a direct numeric question).
func (m *SimLM) heightCM(person string) float64 {
	if h, ok := m.view.AthleteHeightCM(person); ok {
		return h
	}
	return 165 + float64(int(m.profile.noise("height_guess", person)*25))
}

// fmtFloat renders a height without exponent noise.
func fmtFloat(f float64) string {
	if f == float64(int64(f)) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%.1f", f)
}

// freeform handles prompts outside the known task formats: the model
// responds from parametric knowledge only (this is what the Text2SQL + LM
// baseline degenerates to when its SQL returned nothing, per Figure 2).
func (m *SimLM) freeform(prompt string) (string, error) {
	low := strings.ToLower(prompt)
	if strings.Contains(low, "sepang") {
		// Figure 2, middle panel: parametric-knowledge-only answer.
		if c, ok := m.view.Circuit("Sepang International Circuit"); ok {
			return "The data points provided do not contain specific information about the races held on Sepang International Circuit. However, based on general knowledge, the Sepang International Circuit is a racing circuit in " +
				c.City + ", " + c.Country + ", and it has hosted the Malaysian Grand Prix, a Formula One World Championship event, from 1999 to 2017.", nil
		}
	}
	return "I do not have enough information to answer that.", nil
}
