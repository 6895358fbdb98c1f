package render

import (
	"fmt"
	"io"
	"strings"

	"metainsight/internal/core"
	"metainsight/internal/engine"
)

// ReportOptions configures MarkdownReport.
type ReportOptions struct {
	// Title heads the report; defaults to "MetaInsight report".
	Title string
	// Engine serves the raw distributions the sparklines draw; nil leaves
	// them out.
	Engine *engine.Engine
	// Namer resolves custom pattern-type names; nil uses the built-ins.
	Namer TypeNamer
}

// MarkdownReport writes the suggested MetaInsights as a self-contained
// markdown document: one section per insight with its narrative description,
// score breakdown, commonness membership, categorized exceptions,
// sparklines of the underlying raw distributions (given an Engine) and the
// unfolded flat-list representation — the EDA-report artifact a downstream
// user hands to a stakeholder.
func MarkdownReport(w io.Writer, mis []*core.MetaInsight, opts ReportOptions) error {
	title := opts.Title
	if title == "" {
		title = "MetaInsight report"
	}
	if _, err := fmt.Fprintf(w, "# %s\n\n%d suggested MetaInsights.\n", title, len(mis)); err != nil {
		return err
	}
	for i, mi := range mis {
		h := mi.HDP.HDS
		fmt.Fprintf(w, "\n## %d. %s\n\n", i+1, DescribeMetaInsightNamed(mi, opts.Namer))
		fmt.Fprintf(w, "- **score** %.3f (conciseness %.3f × impact %.3f)\n",
			mi.Score, mi.Conciseness, clamp01(mi.ImpactHDS))
		fmt.Fprintf(w, "- **structure** %s %s over %s, %d patterns, %d commonness(es), %d exception(s)\n",
			nameOf(opts.Namer, mi.HDP.Type), h.Kind, h.Anchor.Breakdown,
			len(mi.HDP.Patterns), len(mi.CommSet), len(mi.Exceptions))
		for ci, c := range mi.CommSet {
			members := make([]string, 0, len(c.Indices))
			for _, idx := range c.Indices {
				members = append(members, memberName(h, mi.HDP.Patterns[idx]))
			}
			fmt.Fprintf(w, "- **commonness %d** (%d/%d): %s — %s\n",
				ci+1, len(c.Indices), len(mi.HDP.Patterns), c.Highlight, strings.Join(members, ", "))
		}
		for _, e := range mi.Exceptions {
			dp := mi.HDP.Patterns[e.Index]
			fmt.Fprintf(w, "- **exception** (%s): %s\n", e.Category, memberName(h, dp))
		}
		if opts.Engine != nil {
			fmt.Fprintf(w, "\n```\n")
			writeSparklines(w, mi, opts.Engine)
			fmt.Fprintf(w, "```\n")
		}
		fmt.Fprintf(w, "\n<details><summary>flat-list representation</summary>\n\n")
		for _, line := range FlatListNamed(mi, opts.Namer) {
			fmt.Fprintf(w, "- %s\n", line)
		}
		fmt.Fprintf(w, "\n</details>\n")
	}
	return nil
}

func writeSparklines(w io.Writer, mi *core.MetaInsight, eng *engine.Engine) {
	h := mi.HDP.HDS
	width := 0
	for _, dp := range mi.HDP.Patterns {
		if n := len(memberName(h, dp)); n > width {
			width = n
		}
	}
	for _, dp := range mi.HDP.Patterns {
		series, err := eng.BasicQuery(dp.Scope)
		if err != nil {
			continue
		}
		marker := " "
		if dp.Type != mi.HDP.Type {
			marker = "*"
		} else if len(mi.CommSet) > 0 && !dp.Highlight.Equal(mi.CommSet[0].Highlight) {
			marker = "*"
		}
		fmt.Fprintf(w, "%s %-*s %s\n", marker, width, memberName(h, dp), Sparkline(series.Values))
	}
}

func clamp01(x float64) float64 {
	if x > 1 {
		return 1
	}
	if x < 0 {
		return 0
	}
	return x
}
