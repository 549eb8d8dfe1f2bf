package llm

import "strings"

// Recognises reports whether the judgement head reads the claim of a
// semantic-filter prompt as a sentence of the grammar. It is for tests that
// must live outside the package (claims_test.go imports core).
func (m *SimLM) Recognises(claim string) bool {
	_, recognised := m.judgeClaim(strings.TrimSpace(claim))
	return recognised
}
