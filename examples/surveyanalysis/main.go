// Surveyanalysis: the paper's expert-user-study scenario (Section 5.2) — a
// 474-respondent remote-working survey with 24 single-choice questions and
// COUNT(*) as the only measure. Every MetaInsight here is the cross-analysis
// of two questions: the primary question forms the sibling group (subspace
// extension), the secondary question is the breakdown. The example
// reproduces the paper's finding 3: workspace sufficiency drives
// productivity — visible as an exception on the "strongly agree on
// insufficient workspace" group.
package main

import (
	"context"
	"fmt"
	"log"

	"metainsight"
	"metainsight/internal/workload"
)

func main() {
	tab := workload.RemoteWorkSurvey()
	fmt.Printf("dataset %q: %d respondents × %d questions\n\n", tab.Name(), tab.Rows(), tab.Cols())

	s, err := metainsight.NewSession(tab)
	if err != nil {
		log.Fatal(err)
	}
	// Question-pair cross-analysis = depth-1 subspaces.
	an, err := s.Analyze(context.Background(), metainsight.Request{TopK: 10, MaxFilters: 1})
	if err != nil {
		log.Fatal(err)
	}
	result, top := an.Result, an.Insights

	fmt.Printf("top %d MetaInsights of %d candidates:\n\n", len(top), result.Len())
	for i, in := range top {
		fmt.Printf("%2d. [score %.3f] %s\n", i+1, in.Score(), in.Description())
	}

	// The hypothesis-verifying MetaInsight: insufficient workspace as the
	// primary question, productivity as the secondary question.
	workspace := "I have insufficient workspace setup"
	productivity := "How has your productivity changed vs working in office"
	for _, mi := range result.All() {
		h := mi.HDP.HDS
		if h.ExtDim == workspace && h.Anchor.Breakdown == productivity && mi.HasExceptions() {
			fmt.Println("\nhypothesis check (workspace → productivity):")
			fmt.Println("  " + metainsight.Describe(mi))
			for _, exc := range mi.Exceptions {
				dp := mi.HDP.Patterns[exc.Index]
				answer, _ := dp.Scope.Subspace.Get(workspace)
				fmt.Printf("  exception group: respondents answering %q (%s)\n", answer, exc.Category)
			}
			break
		}
	}
}
