package main

import (
	"os"
	"strings"
	"testing"
)

func TestIDSummaryFollowsTheTable(t *testing.T) {
	if got, want := idSummary(experiments()), "e1..e11, a1..a4"; got != want {
		t.Errorf("idSummary = %q, want %q (update this test when adding an experiment)", got, want)
	}
	if got := idSummary([]experiment{{id: "e1"}, {id: "a1"}, {id: "a2"}}); got != "e1, a1..a2" {
		t.Errorf("single-id run = %q", got)
	}
}

// README quotes the id range next to the rstore-bench command line; it is
// the same string the -exp help prints.
func TestREADMEQuotesTheIDSummary(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if want := "(" + idSummary(experiments()) + ")"; !strings.Contains(string(readme), want) {
		t.Errorf("README.md does not mention %q", want)
	}
}
