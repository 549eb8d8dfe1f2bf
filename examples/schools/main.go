// Schools: the paper's world-knowledge scenario on california_schools —
// "What is the grade span offered in the school with the highest longitude
// in cities that are part of the 'Silicon Valley' region?" (Appendix A) —
// contrasting vanilla Text2SQL (enumerating region members inside SQL,
// from lossy parametric knowledge) with the TAG pipeline (one recognition
// claim per distinct city through a semantic filter).
//
//	go run ./examples/schools
package main

import (
	"context"
	"fmt"
	"log"

	"tag"
)

func main() {
	ctx := context.Background()
	sys, err := tag.Open("california_schools")
	if err != nil {
		log.Fatal(err)
	}
	question := "What is the grade span offered of the school with the highest longitude located in a city that is part of the 'Silicon Valley' region?"

	// Vanilla Text2SQL path: the full TAG pipeline's synthesis compiles the
	// knowledge clause into an IN-list from the model's parametric memory.
	resp, err := sys.Ask(ctx, question)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Text2SQL-style synthesis:")
	fmt.Println(" ", resp.SQL)
	fmt.Println("  answer:", resp.Answer)

	// Hand-written TAG path, the shape of the paper's Appendix C pipeline:
	// the relational steps (projection, ordering) are SQL; one recognition
	// claim is asked per distinct city and semi-joined back; the argmax is
	// the head of the ordered frame.
	df, err := sys.FrameQuery(
		"SELECT School, City, Longitude, GSoffered FROM schools ORDER BY Longitude DESC")
	if err != nil {
		log.Fatal(err)
	}
	cities, err := sys.FrameQuery("SELECT COUNT(DISTINCT City) AS n FROM schools")
	if err != nil {
		log.Fatal(err)
	}
	inRegion := tag.TaskClaim("city in region").About("{City}", "Silicon Valley")
	sv, err := df.SemFilterDistinct(ctx, sys.Model(), inRegion, "City")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nHand-written TAG pipeline:")
	fmt.Printf("  %d schools -> %s distinct cities, one claim each -> %d schools in believed Silicon Valley cities\n",
		df.Len(), cities.Value(0, "n").AsText(), sv.Len())
	if sv.Len() == 0 {
		log.Fatal("no Silicon Valley schools found")
	}
	top := sv.Head(1)
	fmt.Printf("  easternmost: %s (%s) — grade span %q\n",
		top.Value(0, "School").AsText(), top.Value(0, "City").AsText(),
		top.Value(0, "GSoffered").AsText())
	fmt.Printf("\nsimulated LM time: %.2fs\n", sys.LMSeconds())
}
