package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"tag/internal/llm"
	"tag/internal/tagbench"
	"tag/internal/world"
)

// Prompt bytes are the contract between exec and gen: token counts,
// simulated seconds and answers all follow from them. The pins in
// testdata/prompt_pins.txt were written by running this file, unchanged, on
// the commit before DataPoint became an ordered form; a refactor of the row
// → prompt path must reproduce every one of them.

const promptPinFile = "testdata/prompt_pins.txt"

var updatePromptPins = flag.Bool("update-prompt-pins", false,
	"rewrite "+promptPinFile+" from this run instead of checking against it")

// promptRecorder hashes every prompt on its way to the model. Unwrap keeps
// llm.AsSimLM working, which Pipeline.Run needs to reach the SimLM.
type promptRecorder struct {
	llm.Model
	calls int
	chain [sha256.Size]byte
}

func (r *promptRecorder) Unwrap() llm.Model { return r.Model }

// record folds (call ordinal, sha256(prompt)) into the question's digest,
// so a prompt that moves to another ordinal changes it too.
func (r *promptRecorder) record(prompt string) {
	var buf [sha256.Size + 8 + sha256.Size]byte
	copy(buf[:], r.chain[:])
	binary.BigEndian.PutUint64(buf[sha256.Size:], uint64(r.calls))
	sum := sha256.Sum256([]byte(prompt))
	copy(buf[sha256.Size+8:], sum[:])
	r.chain = sha256.Sum256(buf[:])
	r.calls++
}

func (r *promptRecorder) Complete(ctx context.Context, prompt string) (string, error) {
	r.record(prompt)
	return r.Model.Complete(ctx, prompt)
}

func (r *promptRecorder) CompleteBatch(ctx context.Context, prompts []string) ([]string, []error) {
	for _, p := range prompts {
		r.record(p)
	}
	return r.Model.CompleteBatch(ctx, prompts)
}

// pinnedMethods builds the seven methods of the tagbench_methods workload,
// each behind its own recorder: Table 1's five plus the two automatic
// pipelines under the retry decorator System.Ask gives them.
func pinnedMethods() (keys []string, methods []Method, recs []*promptRecorder) {
	newRec := func(inner llm.Model) *promptRecorder {
		r := &promptRecorder{Model: inner}
		recs = append(recs, r)
		return r
	}
	sim := func() *llm.SimLM {
		return llm.NewSimLM(world.Default(), llm.DefaultProfile(), llm.NewClock(), llm.DefaultCostModel())
	}
	keys = []string{"text2sql", "rag", "retrieval_lm_rank", "text2sql_lm", "handwritten_tag", "tag_auto", "tag_udf"}
	methods = []Method{
		&Text2SQL{Model: newRec(sim())},
		&RAG{Model: newRec(sim()), TopK: 10},
		&RetrievalLMRank{Model: newRec(sim()), Candidates: 30, TopK: 10},
		&Text2SQLLM{Model: newRec(sim())},
		&HandwrittenTAG{Model: newRec(sim())},
	}
	for _, udfs := range []bool{false, true} {
		model := newRec(llm.WithRetry(sim(), llm.DefaultRetryOptions()))
		methods = append(methods, &TAGPipelineMethod{Pipeline: Pipeline{Model: model, UseLMUDFs: udfs}})
	}
	return keys, methods, recs
}

// TestPromptBytesPinned answers the 80 questions with the 7 methods and
// compares, per (method, question), the number of prompts sent and the
// digest of their bytes in call order with the pinned run.
func TestPromptBytesPinned(t *testing.T) {
	envs := envsForTest(t)
	ctx := context.Background()
	keys, methods, recs := pinnedMethods()
	var got bytes.Buffer
	for mi, m := range methods {
		for _, q := range tagbench.Queries() {
			rec := recs[mi]
			rec.calls, rec.chain = 0, [sha256.Size]byte{}
			// Errors (invalid SQL, context overflow) are part of the pinned
			// behaviour: the prompts sent up to the failure still count.
			_, _ = m.Answer(ctx, envs[q.Spec.Domain], q)
			fmt.Fprintf(&got, "%s\t%s\t%d\t%s\n", keys[mi], q.ID, rec.calls, hex.EncodeToString(rec.chain[:]))
		}
	}
	if *updatePromptPins {
		if err := os.WriteFile(promptPinFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(promptPinFile)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d (method, question) pairs answered, %d pinned", len(gotLines), len(wantLines))
	}
	bad := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			if bad++; bad <= 10 {
				t.Errorf("prompts moved (method, question, calls, digest):\n got  %s\n want %s", gotLines[i], wantLines[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d (method, question) pairs sent different prompt bytes than the pinned run", bad, len(gotLines))
	}
}
