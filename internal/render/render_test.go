package render

import (
	"strings"
	"testing"

	"metainsight/internal/core"
	"metainsight/internal/model"
	"metainsight/internal/pattern"
)

func scope(city string) model.DataScope {
	return model.DataScope{
		Subspace:  model.NewSubspace(model.Filter{Dim: "City", Value: city}),
		Breakdown: "Month",
		Measure:   model.Sum("Sales"),
	}
}

func TestDescribePatternAllTypes(t *testing.T) {
	cases := []struct {
		dp   core.DataPattern
		want []string
	}{
		{core.DataPattern{Scope: scope("LA"), Type: pattern.OutstandingFirst,
			Highlight: pattern.Highlight{Positions: []string{"Apr"}}},
			[]string{"noticeably higher", "Apr"}},
		{core.DataPattern{Scope: scope("LA"), Type: pattern.OutstandingLast,
			Highlight: pattern.Highlight{Positions: []string{"Apr"}}},
			[]string{"noticeably lower"}},
		{core.DataPattern{Scope: scope("LA"), Type: pattern.OutstandingTop2,
			Highlight: pattern.Highlight{Positions: []string{"Apr", "May"}}},
			[]string{"Apr and May", "higher"}},
		{core.DataPattern{Scope: scope("LA"), Type: pattern.OutstandingLast2,
			Highlight: pattern.Highlight{Positions: []string{"Apr", "May"}}},
			[]string{"Apr and May", "lower"}},
		{core.DataPattern{Scope: scope("LA"), Type: pattern.Evenness,
			Highlight: pattern.Highlight{Label: "even"}},
			[]string{"relatively even"}},
		{core.DataPattern{Scope: scope("LA"), Type: pattern.Attribution,
			Highlight: pattern.Highlight{Positions: []string{"Apr"}}},
			[]string{"majority"}},
		{core.DataPattern{Scope: scope("LA"), Type: pattern.Trend,
			Highlight: pattern.Highlight{Label: "increasing"}},
			[]string{"trending upwards"}},
		{core.DataPattern{Scope: scope("LA"), Type: pattern.Trend,
			Highlight: pattern.Highlight{Label: "decreasing"}},
			[]string{"trending downwards"}},
		{core.DataPattern{Scope: scope("LA"), Type: pattern.Outlier,
			Highlight: pattern.Highlight{Positions: []string{"Apr"}, Label: "above"}},
			[]string{"outlier", "above", "Apr"}},
		{core.DataPattern{Scope: scope("LA"), Type: pattern.Seasonality,
			Highlight: pattern.Highlight{Label: "period=3"}},
			[]string{"repeating", "period=3"}},
		{core.DataPattern{Scope: scope("LA"), Type: pattern.ChangePoint,
			Highlight: pattern.Highlight{Positions: []string{"Jun"}}},
			[]string{"changed significantly", "Jun"}},
		{core.DataPattern{Scope: scope("LA"), Type: pattern.Unimodality,
			Highlight: pattern.Highlight{Positions: []string{"Apr"}, Label: "valley"}},
			[]string{"minimum", "Apr"}},
		{core.DataPattern{Scope: scope("LA"), Type: pattern.Unimodality,
			Highlight: pattern.Highlight{Positions: []string{"Apr"}, Label: "peak"}},
			[]string{"maximum"}},
		{core.DataPattern{Scope: scope("LA"), Type: pattern.OtherPattern},
			[]string{"different pattern"}},
		{core.DataPattern{Scope: scope("LA"), Type: pattern.NoPattern},
			[]string{"not exhibit any particular pattern"}},
	}
	for _, c := range cases {
		got := DescribePattern(c.dp)
		for _, frag := range c.want {
			if !strings.Contains(got, frag) {
				t.Errorf("%v description %q missing %q", c.dp.Type, got, frag)
			}
		}
		if !strings.Contains(got, "City: LA") {
			t.Errorf("%v description %q missing subspace", c.dp.Type, got)
		}
	}
}

func buildMI(t *testing.T, tau float64) *core.MetaInsight {
	t.Helper()
	dps := []core.DataPattern{}
	for _, city := range []string{"LA", "SF", "SJ", "Oakland", "Sacramento"} {
		dps = append(dps, core.DataPattern{
			Scope: scope(city), Type: pattern.Unimodality,
			Highlight: pattern.Highlight{Positions: []string{"Apr"}, Label: "valley"},
		})
	}
	dps = append(dps, core.DataPattern{
		Scope: scope("San Diego"), Type: pattern.Unimodality,
		Highlight: pattern.Highlight{Positions: []string{"Jul"}, Label: "valley"},
	})
	dps = append(dps, core.DataPattern{Scope: scope("Fresno"), Type: pattern.OtherPattern})
	dps = append(dps, core.DataPattern{Scope: scope("Yuba"), Type: pattern.NoPattern})

	hds := core.SubspaceHDS(scope("LA"), "City", nil)
	for _, dp := range dps {
		hds.Scopes = append(hds.Scopes, dp.Scope)
	}
	mi, ok := core.BuildMetaInsight(&core.HDP{HDS: hds, Type: pattern.Unimodality, Patterns: dps}, 1, tau)
	if !ok {
		t.Fatal("MetaInsight rejected")
	}
	return mi
}

func TestDescribeMetaInsightNarrative(t *testing.T) {
	got := DescribeMetaInsight(buildMI(t, 0.5))
	for _, frag := range []string{
		"For most Cities",
		"Apr has the lowest SUM(Sales)",
		"(5/8)",
		"except",
		"San Diego, where Month: Jul has the lowest",
		"Fresno, which exhibits a different pattern",
		"Yuba, which does not exhibit any particular pattern",
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("narrative %q missing %q", got, frag)
		}
	}
}

func TestDescribeMetaInsightWithoutExceptionsEndsCleanly(t *testing.T) {
	dps := []core.DataPattern{}
	for _, city := range []string{"LA", "SF", "SJ"} {
		dps = append(dps, core.DataPattern{
			Scope: scope(city), Type: pattern.Trend,
			Highlight: pattern.Highlight{Label: "increasing"},
		})
	}
	hds := core.SubspaceHDS(scope("LA"), "City", nil)
	for _, dp := range dps {
		hds.Scopes = append(hds.Scopes, dp.Scope)
	}
	mi, ok := core.BuildMetaInsight(&core.HDP{HDS: hds, Type: pattern.Trend, Patterns: dps}, 1, 0.5)
	if !ok {
		t.Fatal("rejected")
	}
	got := DescribeMetaInsight(mi)
	if strings.Contains(got, "except") {
		t.Errorf("exception clause without exceptions: %q", got)
	}
	if !strings.HasSuffix(got, ".") {
		t.Errorf("narrative does not end with a period: %q", got)
	}
}

func TestFlatListUnfoldsEveryPattern(t *testing.T) {
	mi := buildMI(t, 0.5)
	flr := FlatList(mi)
	if len(flr) != len(mi.HDP.Patterns) {
		t.Fatalf("FLR has %d lines for %d patterns", len(flr), len(mi.HDP.Patterns))
	}
	joined := strings.Join(flr, "\n")
	for _, city := range []string{"LA", "San Diego", "Fresno", "Yuba"} {
		if !strings.Contains(joined, city) {
			t.Errorf("FLR missing %s", city)
		}
	}
}

func TestPlural(t *testing.T) {
	cases := map[string]string{
		"City":             "Cities",
		"Month":            "Months",
		"Sales":            "Sales",
		"Day":              "Days", // vowel + y
		"I work from home": "\"I work from home\" groups",
	}
	for in, want := range cases {
		if got := plural(in); got != want {
			t.Errorf("plural(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline length = %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Errorf("sparkline = %q", s)
	}
	if Sparkline([]float64{5, 5}) != "▁▁" {
		t.Errorf("flat sparkline = %q", Sparkline([]float64{5, 5}))
	}
	if Sparkline(nil) != "" {
		t.Error("empty sparkline should be empty")
	}
}

func TestDescribeMetaInsightMeasureExtended(t *testing.T) {
	anchor := model.DataScope{Breakdown: "Month", Measure: model.Sum("Sales")}
	hds := core.MeasureHDS(anchor, []model.Measure{model.Sum("Sales"), model.Sum("Units"), model.Count("*")})
	dps := []core.DataPattern{
		{Scope: hds.Scopes[0], Type: pattern.Trend, Highlight: pattern.Highlight{Label: "increasing"}},
		{Scope: hds.Scopes[1], Type: pattern.Trend, Highlight: pattern.Highlight{Label: "increasing"}},
		{Scope: hds.Scopes[2], Type: pattern.NoPattern},
	}
	mi, ok := core.BuildMetaInsight(&core.HDP{HDS: hds, Type: pattern.Trend, Patterns: dps}, 1, 0.5)
	if !ok {
		t.Fatal("rejected")
	}
	got := DescribeMetaInsight(mi)
	if !strings.Contains(got, "most measures") {
		t.Errorf("measure-extended narrative %q should generalize over measures", got)
	}
	if !strings.Contains(got, "values are trending") {
		t.Errorf("measure-extended commonness should not name one measure: %q", got)
	}
	if !strings.Contains(got, "COUNT(*)") {
		t.Errorf("exception should be named by its measure: %q", got)
	}
}

func TestMarkdownReport(t *testing.T) {
	mi := buildMI(t, 0.5)
	var buf strings.Builder
	err := MarkdownReport(&buf, []*core.MetaInsight{mi}, ReportOptions{Title: "Test report"})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{
		"# Test report",
		"## 1. For most Cities",
		"**score**",
		"**commonness 1** (5/8)",
		"**exception** (highlight-change): San Diego",
		"**exception** (type-change): Fresno",
		"**exception** (no-pattern): Yuba",
		"flat-list representation",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("report missing %q:\n%s", frag, out)
		}
	}
}
