// Movies: the paper's Figure 1 worked example, written as a hand-crafted
// TAG pipeline over semantic operators —
//
//	"Summarize the reviews of the highest grossing romance movie
//	 considered a 'classic'."
//
// The pipeline mirrors Appendix C's LOTUS programs: relational filtering
// and ordering stay exact; the LM judges "classic" per candidate title and
// writes the final summary.
//
//	go run ./examples/movies
package main

import (
	"context"
	"fmt"
	"log"

	"tag"
)

func main() {
	ctx := context.Background()
	sys, err := tag.Open("movies")
	if err != nil {
		log.Fatal(err)
	}
	model := sys.Model()

	// Stage 1 (relational): romance movies, ordered by revenue.
	df, err := sys.FrameQuery(
		"SELECT id, title, revenue FROM movies WHERE genre = 'Romance' ORDER BY revenue DESC")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("romance movies: %d\n", df.Len())

	// Stage 2 (semantic filter): keep widely-acknowledged classics. One
	// batched LM call over the candidate titles.
	classics, err := df.SemFilter(ctx, model, tag.TaskClaim("classic movie").About("{title}", ""))
	if err != nil {
		log.Fatal(err)
	}
	titles, _ := classics.Strings("title")
	fmt.Printf("classics among them: %v\n", titles)

	// Stage 3 (relational): the highest-grossing classic is the first row
	// (the frame is already ordered by revenue).
	top := classics.Head(1)
	if top.Len() == 0 {
		log.Fatal("no classic romance movies found")
	}
	title := top.Value(0, "title").AsText()
	fmt.Printf("highest grossing romance classic: %s (revenue %s)\n\n",
		title, top.Value(0, "revenue").AsText())

	// Stage 4 (retrieve + semantic aggregation): summarise its reviews.
	reviews, err := sys.FrameQuery(
		"SELECT r.body FROM reviews r JOIN movies m ON r.movie_id = m.id WHERE m.title = ?", title)
	if err != nil {
		log.Fatal(err)
	}
	summary, err := reviews.SemAgg(ctx, model, "Summarize the reviews", "body")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("summary of reviews:")
	fmt.Println(" ", summary)
	fmt.Printf("\nsimulated LM time: %.2fs\n", sys.LMSeconds())
}
