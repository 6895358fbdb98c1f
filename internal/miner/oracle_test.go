package miner

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"metainsight/internal/dataset"
	"metainsight/internal/engine"
	"metainsight/internal/model"
	"metainsight/internal/pattern"
)

// The brute-force MetaInsight oracle: handwritten toy tables, every data
// scope and homogeneous data scope listed straight from Definitions 3.2–3.5
// with maps and row-index slices, each scope evaluated with the per-type
// pattern.EvaluateScoped, and commonness, exceptions and score derived from
// Equations 8 and 13–18 here, not by package core. The miner's documented
// thresholds (filter depth, the breakdown cardinality cap and floor,
// MinSubspaceImpact and Pruning 2's MinImpact) are applied as predicates over
// the enumeration; nothing here queues, memoizes, bounds or cuts. "Same
// scope" and "same pattern" follow pd-explain's DataScope.__hash__ (sorted
// subspace items, breakdown, measure) and BasicDataPattern.__eq__ (type and
// highlight, never equal for the placeholders).

// toyDim is one dimension of a toy table, its domain written in domain order.
type toyDim struct {
	name     string
	temporal bool
	domain   []string
}

// toyCase is a handwritten toy table and the thresholds it is mined under.
// Each line of rows is "<values of every dimension but the last> | <cell> |
// …", one cell per value of the last dimension in domain order; a cell is
// "-" (no rows) or the comma-separated measure values of its rows.
type toyCase struct {
	name    string
	dims    []toyDim
	measure string // the measure column
	rows    string
	mined   []model.Measure
	impact  model.Measure
	tune    func(*Config) // the thresholds this case moves off the defaults
	// check asserts what the case is there to exercise.
	check func(t *testing.T, o *bruteForce, rows []toyRow)
}

// toyRow is one parsed row: its dimension values by name and its measure.
type toyRow struct {
	dims map[string]string
	val  float64
}

func (tc *toyCase) parse(t *testing.T) []toyRow {
	t.Helper()
	var out []toyRow
	last := tc.dims[len(tc.dims)-1]
	for _, line := range strings.Split(strings.TrimSpace(tc.rows), "\n") {
		parts := strings.Split(line, "|")
		lead := strings.Fields(parts[0])
		if len(lead) != len(tc.dims)-1 || len(parts)-1 != len(last.domain) {
			t.Fatalf("%s: malformed line %q", tc.name, line)
		}
		for i, cell := range parts[1:] {
			cell = strings.TrimSpace(cell)
			if cell == "-" {
				continue
			}
			for _, f := range strings.Split(cell, ",") {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					t.Fatalf("%s: line %q: %v", tc.name, line, err)
				}
				row := toyRow{dims: map[string]string{last.name: last.domain[i]}, val: v}
				for j, d := range tc.dims[:len(tc.dims)-1] {
					row.dims[d.name] = lead[j]
				}
				out = append(out, row)
			}
		}
	}
	return out
}

// table builds the dataset the miner mines from the parsed rows, and checks
// that its dimension domains are the ones written down.
func (tc *toyCase) table(t *testing.T, rows []toyRow) *dataset.Table {
	t.Helper()
	var fields []model.Field
	for _, d := range tc.dims {
		kind := model.KindCategorical
		if d.temporal {
			kind = model.KindTemporal
		}
		fields = append(fields, model.Field{Name: d.name, Kind: kind})
	}
	fields = append(fields, model.Field{Name: tc.measure, Kind: model.KindMeasure})
	b := dataset.NewBuilder(tc.name, fields)
	for _, r := range rows {
		vals := make([]string, len(tc.dims))
		for i, d := range tc.dims {
			vals[i] = r.dims[d.name]
		}
		b.AddRow(vals, []float64{r.val})
	}
	tab := b.Build()
	for _, d := range tc.dims {
		if got := tab.Dimension(d.name).Domain(); !slices.Equal(got, d.domain) {
			t.Fatalf("%s: dimension %s has domain %q, written %q", tc.name, d.name, got, d.domain)
		}
	}
	return tab
}

// oracleScope is a data scope: a subspace as a map, a breakdown and a measure.
type oracleScope struct {
	sub       map[string]string
	breakdown string
	measure   model.Measure
}

// key is pd-explain's DataScope identity: sorted subspace items, breakdown,
// measure.
func (s oracleScope) key() string {
	items := make([]string, 0, len(s.sub))
	for d, v := range s.sub {
		items = append(items, strconv.Quote(d)+"="+strconv.Quote(v))
	}
	sort.Strings(items)
	return strings.Join(items, ";") + "|" + strconv.Quote(s.breakdown) + "|" + s.measure.Agg.String() + "/" + strconv.Quote(s.measure.Column)
}

// oracleHDS is a homogeneous data scope (Definition 3.2) with its impact
// (Equation 17).
type oracleHDS struct {
	kind   string
	scopes []oracleScope
	impact float64
}

// id is the HDS's identity: the set of its data scopes.
func (h oracleHDS) id() string {
	keys := make([]string, len(h.scopes))
	for i, s := range h.scopes {
		keys[i] = s.key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// oracleInsight is the part of a MetaInsight both sides are compared on.
type oracleInsight struct {
	kind       string
	score      float64
	commonness []string // per commonness: highlight and sorted member scope keys
	exceptions []string // per exception: scope key and category
}

// bruteForce is the oracle: every MetaInsight of the toy table under cfg,
// keyed by HDS identity and pattern type.
type bruteForce struct {
	tc    *toyCase
	rows  []toyRow
	cfg   Config
	total float64 // Σ impact measure over the table
	// exactTau counts the Sim classes whose ratio is exactly τ: not a
	// commonness (Definition 3.4 asks for more than τ).
	exactTau int
}

func newBruteForce(tc *toyCase, rows []toyRow, cfg Config) *bruteForce {
	o := &bruteForce{tc: tc, rows: rows, cfg: cfg}
	for i := range rows {
		o.total += o.impactValue(i)
	}
	return o
}

func (o *bruteForce) impactValue(row int) float64 {
	if o.tc.impact.Agg == model.AggCount {
		return 1
	}
	return o.rows[row].val
}

// rowsOf returns the indices of the rows in the subspace.
func (o *bruteForce) rowsOf(sub map[string]string) []int {
	var out []int
	for i, r := range o.rows {
		in := true
		for d, v := range sub {
			if r.dims[d] != v {
				in = false
				break
			}
		}
		if in {
			out = append(out, i)
		}
	}
	return out
}

// impactOf is Equation 2: the subspace's share of the impact measure.
func (o *bruteForce) impactOf(sub map[string]string) float64 {
	sum := 0.0
	for _, i := range o.rowsOf(sub) {
		sum += o.impactValue(i)
	}
	return sum / o.total
}

func (o *bruteForce) aggregate(rows []int, m model.Measure) float64 {
	switch m.Agg {
	case model.AggCount:
		return float64(len(rows))
	case model.AggSum, model.AggAvg:
		sum := 0.0
		for _, i := range rows {
			sum += o.rows[i].val
		}
		if m.Agg == model.AggAvg {
			return sum / float64(len(rows))
		}
		return sum
	}
	panic(fmt.Sprintf("oracle: aggregate %v", m.Agg))
}

func (o *bruteForce) dim(name string) toyDim {
	for _, d := range o.tc.dims {
		if d.name == name {
			return d
		}
	}
	panic("oracle: no dimension " + name)
}

// series is the scope's raw data distribution: the breakdown values with
// rows in the subspace, in domain order, and their aggregates.
func (o *bruteForce) series(s oracleScope) (keys []string, vals []float64) {
	for _, v := range o.dim(s.breakdown).domain {
		sub := withFilter(s.sub, s.breakdown, v)
		if rows := o.rowsOf(sub); len(rows) > 0 {
			keys = append(keys, v)
			vals = append(vals, o.aggregate(rows, s.measure))
		}
	}
	return keys, vals
}

// evaluate runs every built-in type's criterion on a scope with at least
// three breakdown groups (the miner's floor: fewer is no scope) and returns
// the highlight of each type that holds; ok is false below the floor.
func (o *bruteForce) evaluate(s oracleScope) (holds map[pattern.Type]pattern.Highlight, ok bool) {
	keys, vals := o.series(s)
	if len(keys) < 3 {
		return nil, false
	}
	holds = map[pattern.Type]pattern.Highlight{}
	for t := pattern.Type(0); t < pattern.NumTypes; t++ {
		ds := model.DataScope{Subspace: toSubspace(s.sub), Breakdown: s.breakdown, Measure: s.measure}
		if ev := pattern.EvaluateScoped(ds, t, keys, vals, o.dim(s.breakdown).temporal, o.cfg.Pattern); ev.Valid {
			holds[t] = ev.Highlight
		}
	}
	return holds, true
}

// overCap reports whether d's domain is above the cardinality cap (0 is
// none), which keeps it out of breakdowns and filters.
func (o *bruteForce) overCap(d toyDim) bool {
	return o.cfg.MaxBreakdownCardinality > 0 && len(d.domain) > o.cfg.MaxBreakdownCardinality
}

// subspaces lists every subspace of the table: each dimension unset or set
// to one of its values.
func (o *bruteForce) subspaces() []map[string]string {
	out := []map[string]string{{}}
	for _, d := range o.tc.dims {
		for _, sub := range out {
			for _, v := range d.domain {
				out = append(out, withFilter(sub, d.name, v))
			}
		}
	}
	return out
}

// explored is the search frontier as a predicate: at most
// MaxSubspaceFilters filters, none on a dimension above the cardinality cap,
// and every subspace on the chain from the empty one to sub — adding its
// filters in dimension order — has rows and at least MinSubspaceImpact.
func (o *bruteForce) explored(sub map[string]string) bool {
	if len(sub) > o.cfg.MaxSubspaceFilters {
		return false
	}
	prefix := map[string]string{}
	for _, d := range o.tc.dims {
		v, ok := sub[d.name]
		if !ok {
			continue
		}
		if o.overCap(d) {
			return false
		}
		prefix = withFilter(prefix, d.name, v)
		if len(o.rowsOf(prefix)) == 0 || o.impactOf(prefix) < o.cfg.MinSubspaceImpact {
			return false
		}
	}
	return true
}

// extensions applies Definition 3.2's three strategies to an anchor scope:
// vary one filter over its dimension's domain (Equation 4; the HDS's impact
// is the subspace's without that filter), vary the measure over M (Equation
// 5; |M| times the subspace's impact) and, from a temporal breakdown, vary
// the breakdown over the temporal dimensions the subspace leaves free
// (Equation 6; their count times the subspace's impact). An HDS needs two
// scopes.
func (o *bruteForce) extensions(a oracleScope) []oracleHDS {
	var out []oracleHDS
	for _, d := range o.tc.dims {
		if _, ok := a.sub[d.name]; !ok || len(d.domain) < 2 {
			continue
		}
		root := maps.Clone(a.sub)
		delete(root, d.name)
		h := oracleHDS{kind: "subspace", impact: o.impactOf(root)}
		for _, v := range d.domain {
			h.scopes = append(h.scopes, oracleScope{withFilter(root, d.name, v), a.breakdown, a.measure})
		}
		out = append(out, h)
	}
	if len(o.tc.mined) >= 2 {
		h := oracleHDS{kind: "measure", impact: float64(len(o.tc.mined)) * o.impactOf(a.sub)}
		for _, m := range o.tc.mined {
			h.scopes = append(h.scopes, oracleScope{a.sub, a.breakdown, m})
		}
		out = append(out, h)
	}
	if o.dim(a.breakdown).temporal {
		h := oracleHDS{kind: "breakdown"}
		for _, d := range o.tc.dims {
			if _, filtered := a.sub[d.name]; d.temporal && !filtered {
				h.scopes = append(h.scopes, oracleScope{a.sub, d.name, a.measure})
			}
		}
		h.impact = float64(len(h.scopes)) * o.impactOf(a.sub)
		if len(h.scopes) >= 2 {
			out = append(out, h)
		}
	}
	return out
}

// mine returns every MetaInsight of the table keyed by HDS identity and type.
func (o *bruteForce) mine() map[string]oracleInsight {
	type hdp struct {
		hds oracleHDS
		typ pattern.Type
	}
	// Every (HDS, type) pair some anchor reaches: an explored subspace, a
	// breakdown it leaves free within the cardinality floor and cap, a mined
	// measure, and a type that holds there.
	hdps := map[string]hdp{}
	for _, sub := range o.subspaces() {
		if !o.explored(sub) {
			continue
		}
		for _, b := range o.tc.dims {
			if _, filtered := sub[b.name]; filtered || len(b.domain) < 3 || o.overCap(b) {
				continue
			}
			for _, m := range o.tc.mined {
				anchor := oracleScope{sub, b.name, m}
				holds, ok := o.evaluate(anchor)
				if !ok {
					continue
				}
				for t := range holds {
					for _, h := range o.extensions(anchor) {
						hdps[h.id()+"\n"+t.String()] = hdp{h, t}
					}
				}
			}
		}
	}
	out := map[string]oracleInsight{}
	for key, p := range hdps {
		// Pruning 2: g(Impact_HDS) below MinImpact.
		if g(p.hds.impact) < o.cfg.MinImpact {
			continue
		}
		if mi, ok := o.metaInsight(p.hds, p.typ); ok {
			out[key] = mi
		}
	}
	return out
}

// oraclePattern is dp(ds, type) (Section 3.1): the type with its highlight
// where it holds, else the Other or None placeholder.
type oraclePattern struct {
	scope     oracleScope
	typ       string // "type", "other" or "none"
	highlight pattern.Highlight
}

// samePattern is pd-explain's BasicDataPattern.__eq__ within one HDP: both
// of the HDP's type, with equal highlights.
func samePattern(a, b oraclePattern) bool {
	return a.typ == "type" && b.typ == "type" &&
		a.highlight.Label == b.highlight.Label && slices.Equal(a.highlight.Positions, b.highlight.Positions)
}

// metaInsight evaluates the HDP of h under t (Definition 3.3), partitions it
// into Sim classes (Equation 8), commonnesses whose ratio exceeds τ and
// categorized exceptions (Definitions 3.4, 3.5) and scores it (Equations
// 13–18).
func (o *bruteForce) metaInsight(h oracleHDS, t pattern.Type) (oracleInsight, bool) {
	var pats []oraclePattern
	for _, s := range h.scopes {
		holds, ok := o.evaluate(s)
		if !ok {
			continue // under the floor: not part of the HDP
		}
		p := oraclePattern{scope: s, typ: "none"}
		if hl, held := holds[t]; held {
			p.typ, p.highlight = "type", hl
		} else if len(holds) > 0 {
			p.typ = "other"
		}
		pats = append(pats, p)
	}
	if len(pats) < 2 {
		return oracleInsight{}, false
	}
	var classes [][]oraclePattern
	var other, none []oraclePattern
	for _, p := range pats {
		switch p.typ {
		case "other":
			other = append(other, p)
		case "none":
			none = append(none, p)
		default:
			i := slices.IndexFunc(classes, func(c []oraclePattern) bool { return samePattern(c[0], p) })
			if i < 0 {
				i = len(classes)
				classes = append(classes, nil)
			}
			classes[i] = append(classes[i], p)
		}
	}
	n := float64(len(pats))
	tau := o.cfg.Tau
	mi := oracleInsight{kind: h.kind}
	var alphas, betas []float64
	var highlightChange []oraclePattern
	for _, c := range classes {
		ratio := float64(len(c)) / n
		if ratio == tau {
			o.exactTau++
		}
		if ratio > tau {
			alphas = append(alphas, ratio)
			mi.commonness = append(mi.commonness, highlightString(c[0].highlight)+" "+scopeKeys(c))
		} else {
			highlightChange = append(highlightChange, c...)
		}
	}
	if len(alphas) == 0 {
		return oracleInsight{}, false
	}
	for _, cat := range []struct {
		name string
		pats []oraclePattern
	}{{"highlight-change", highlightChange}, {"type-change", other}, {"no-pattern", none}} {
		if len(cat.pats) == 0 {
			continue
		}
		betas = append(betas, float64(len(cat.pats))/n)
		for _, p := range cat.pats {
			mi.exceptions = append(mi.exceptions, p.scope.key()+" "+cat.name)
		}
	}
	sort.Strings(mi.commonness)
	sort.Strings(mi.exceptions)

	// Equation 13: S = −(Σ αᵢ log₂ αᵢ + r Σ βⱼ log₂ βⱼ), with the paper's
	// k = 3, r = 1 and γ = 0.1 (Section 4.1).
	const k, r, gamma = 3.0, 1.0, 0.1
	s := 0.0
	for _, a := range alphas {
		s -= a * math.Log2(a)
	}
	for _, b := range betas {
		s -= r * b * math.Log2(b)
	}
	// Lemma 4.1's S*(τ), then Equation 16's regularized conciseness.
	var sStar float64
	if k < (1-tau)*math.E/math.Pow(tau, 1/r) {
		sStar = -math.Log2(tau) + r*k*math.Pow(tau, 1/r)*math.Log2(math.E)/math.E
	} else {
		sStar = -tau*math.Log2(tau) - r*(1-tau)*math.Log2((1-tau)/k)
	}
	if len(betas) == 0 {
		s += gamma
	}
	conciseness := min(max(1-s/sStar, 0), 1)
	// Equation 18 with f(x) = x and g clamped to [0, 1].
	mi.score = conciseness * g(h.impact)
	return mi, true
}

// g is Equation 18's impact factor, clamped to [0, 1].
func g(impact float64) float64 { return min(max(impact, 0), 1) }

func highlightString(h pattern.Highlight) string {
	return strconv.Quote(h.Label) + fmt.Sprintf("%q", h.Positions)
}

func scopeKeys(ps []oraclePattern) string {
	keys := make([]string, len(ps))
	for i, p := range ps {
		keys[i] = p.scope.key()
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// withFilter returns a copy of sub with dim set to v.
func withFilter(sub map[string]string, dim, v string) map[string]string {
	out := maps.Clone(sub)
	if out == nil {
		out = map[string]string{}
	}
	out[dim] = v
	return out
}

func toSubspace(sub map[string]string) model.Subspace {
	var fs []model.Filter
	for d, v := range sub {
		fs = append(fs, model.Filter{Dim: d, Value: v})
	}
	return model.NewSubspace(fs...)
}

// minerInsights projects a mining result onto what the oracle computes.
func minerInsights(t *testing.T, res *Result) map[string]oracleInsight {
	t.Helper()
	kinds := map[model.ExtensionKind]string{model.ExtendSubspace: "subspace", model.ExtendMeasure: "measure", model.ExtendBreakdown: "breakdown"}
	scope := func(ds model.DataScope) oracleScope {
		sub := map[string]string{}
		for _, f := range ds.Subspace {
			sub[f.Dim] = f.Value
		}
		return oracleScope{sub, ds.Breakdown, ds.Measure}
	}
	out := map[string]oracleInsight{}
	for _, mi := range res.All() {
		h := oracleHDS{kind: kinds[mi.HDP.HDS.Kind]}
		for _, ds := range mi.HDP.HDS.Scopes {
			h.scopes = append(h.scopes, scope(ds))
		}
		key := h.id() + "\n" + mi.HDP.Type.String()
		if _, dup := out[key]; dup {
			t.Errorf("the miner returned %s twice", mi.Key())
		}
		got := oracleInsight{kind: h.kind, score: mi.Score}
		for _, c := range mi.CommSet {
			members := make([]oraclePattern, len(c.Indices))
			for i, idx := range c.Indices {
				members[i] = oraclePattern{scope: scope(mi.HDP.Patterns[idx].Scope)}
			}
			got.commonness = append(got.commonness, highlightString(c.Highlight)+" "+scopeKeys(members))
		}
		for _, e := range mi.Exceptions {
			got.exceptions = append(got.exceptions, scope(mi.HDP.Patterns[e.Index].Scope).key()+" "+e.Category.String())
		}
		sort.Strings(got.commonness)
		sort.Strings(got.exceptions)
		out[key] = got
	}
	return out
}

// TestMinerMatchesBruteForceOracle mines every toy case with the unbudgeted
// miner — at 1 and 8 workers, and at 1 worker with Pruning 1 and the
// impact-sum bounds off, which must not change what is found — and requires
// exactly the oracle's MetaInsights: the same HDPs, the same commonnesses and
// categorized exceptions, and scores within 1e-12.
func TestMinerMatchesBruteForceOracle(t *testing.T) {
	arms := []struct {
		name string
		set  func(*Config)
	}{
		{"workers=1", func(c *Config) { c.Workers = 1 }},
		{"workers=8", func(c *Config) { c.Workers = 8 }},
		{"workers=1/no-pruning1/no-bounds", func(c *Config) {
			c.Workers, c.EnablePruning1, c.EnableBoundPruning = 1, false, false
		}},
	}
	kinds := map[string]int{}
	for _, tc := range toyCases() {
		t.Run(tc.name, func(t *testing.T) {
			rows := tc.parse(t)
			if len(rows) > 200 || len(tc.dims) > 3 {
				t.Fatalf("%d rows over %d dimensions: not a toy table", len(rows), len(tc.dims))
			}
			for _, d := range tc.dims {
				if len(d.domain) > 5 {
					t.Fatalf("dimension %s has %d values: not a toy table", d.name, len(d.domain))
				}
			}
			tab := tc.table(t, rows)
			cfg := DefaultConfig()
			if tc.tune != nil {
				tc.tune(&cfg)
			}
			o := newBruteForce(&tc, rows, cfg)
			want := o.mine()
			if len(want) == 0 {
				t.Fatal("the oracle finds no MetaInsight: the case checks nothing")
			}
			for _, mi := range want {
				kinds[mi.kind]++
			}
			t.Logf("%d rows, %d MetaInsights", len(rows), len(want))
			if tc.check != nil {
				tc.check(t, o, rows)
			}
			for _, arm := range arms {
				c := cfg
				arm.set(&c)
				eng, err := engine.New(tab, engine.Config{Measures: tc.mined, ImpactMeasure: tc.impact})
				if err != nil {
					t.Fatal(err)
				}
				res := New(eng, c).Run()
				if res.Err != nil {
					t.Fatalf("%s: %v", arm.name, res.Err)
				}
				compareInsights(t, arm.name, want, minerInsights(t, res))
			}
		})
	}
	for _, kind := range []string{"subspace", "measure", "breakdown"} {
		if kinds[kind] == 0 {
			t.Errorf("no case yields a %s-extended MetaInsight", kind)
		}
	}
}

func compareInsights(t *testing.T, arm string, want, got map[string]oracleInsight) {
	t.Helper()
	var missing, extra []string
	for key := range want {
		if _, ok := got[key]; !ok {
			missing = append(missing, key)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			extra = append(extra, key)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	for _, key := range missing {
		t.Errorf("%s: the miner misses the oracle's MetaInsight\n%s", arm, key)
	}
	for _, key := range extra {
		t.Errorf("%s: the miner returns a MetaInsight the oracle does not find\n%s", arm, key)
	}
	keys := slices.Sorted(maps.Keys(want))
	for _, key := range keys {
		w, ok := got[key]
		if !ok {
			continue
		}
		o := want[key]
		if w.kind != o.kind || !slices.Equal(w.commonness, o.commonness) || !slices.Equal(w.exceptions, o.exceptions) {
			t.Errorf("%s: MetaInsight\n%s\nminer: %s %q %q\noracle: %s %q %q", arm, key, w.kind, w.commonness, w.exceptions, o.kind, o.commonness, o.exceptions)
		}
		if math.Abs(w.score-o.score) > 1e-12 {
			t.Errorf("%s: MetaInsight\n%s\nscores %.17g, oracle %.17g", arm, key, w.score, o.score)
		}
	}
}

// toyCases are the oracle's tables: a temporal one with two temporal
// dimensions (breakdown extension), one whose Sim classes split an HDS
// exactly at τ, one whose SUM impact column has negative values (the
// impact-sum bounds are unsound there, and a frontier dimension's heaviest
// value lies below a conjunction's impact), and a sparse one with empty
// cells, a two-valued dimension and AVG, mined again with its five-valued
// dimension above the cardinality cap; and one whose breakdown values hold
// commas, so that two different Outstanding Top-2 highlights read the same
// once their positions are joined with ",".
func toyCases() []toyCase {
	months := []string{"Jan", "Feb", "Mar", "Apr", "May"}
	shop := toyCase{
		name: "shop",
		dims: []toyDim{
			{name: "Store", domain: []string{"s1", "s2", "s3"}},
			{name: "Dept", domain: []string{"d1", "d2", "d3", "d4", "d5"}},
			{name: "Tier", domain: []string{"basic", "gold"}},
		},
		measure: "Sales",
		rows: `
s1 d1 | 10,12 | 30
s1 d2 | 8     | -
s1 d3 | 15    | 5,5
s1 d4 | -     | -
s1 d5 | 20    | 22
s2 d1 | 11    | 28,30
s2 d2 | 9,9   | -
s2 d3 | 14    | 6
s2 d4 | 3     | -
s2 d5 | 19    | 25
s3 d1 | -     | 31
s3 d2 | 7     | 2
s3 d3 | 16,14 | -
s3 d4 | -     | -
s3 d5 | 21    | 20`,
		mined:  []model.Measure{model.Sum("Sales"), model.Avg("Sales"), model.Count("*")},
		impact: model.Count("*"),
	}
	capped := shop
	capped.name = "shop/capped"
	capped.tune = func(c *Config) { c.MaxBreakdownCardinality = 4 }
	return []toyCase{
		{
			name: "sales",
			dims: []toyDim{
				{name: "Region", domain: []string{"East", "North", "South", "West"}},
				{name: "Month", temporal: true, domain: months},
				{name: "Day", temporal: true, domain: []string{"Mon", "Tue", "Wed"}},
			},
			measure: "Sales",
			rows: `
East Jan  | 10 | 11 | 12
East Feb  | 20 | 19 | 22
East Mar  | 30 | 31 | 29
East Apr  | 40 | 42 | 41
East May  | 50 | 49 | 52
North Jan | 12 | 10 | 11
North Feb | 22 | 21 | 20
North Mar | 33 | 30 | 31
North Apr | 41 | 43 | 40
North May | 52 | 50 | 51
South Jan | 15 | 14 | 13
South Feb | 25 | 26 | 24
South Mar | 10 | 12 | 11
South Apr | 45 | 44 | 46
South May | 55 | 54 | 56
West Jan  | 50 | 52 | 51
West Feb  | 40 | 41 | 39
West Mar  | 30 | 29 | 31
West Apr  | 20 | 22 | 21
West May  | 10 | 11 | 12`,
			mined:  []model.Measure{model.Sum("Sales"), model.Count("*")},
			impact: model.Count("*"),
		},
		{
			name: "tau",
			dims: []toyDim{
				{name: "City", domain: []string{"c1", "c2", "c3", "c4"}},
				{name: "Product", domain: []string{"p1", "p2", "p3"}},
				{name: "Channel", domain: []string{"store", "web"}},
			},
			measure: "Sales",
			// SUM(Sales) by Product: p1 carries c1 and c2, p2 carries c3
			// and c4 — Attribution's two Sim classes over City are half
			// the HDP each.
			rows: `
c1 p1 | 40 | 30
c1 p2 | 5  | 5
c1 p3 | 6  | 4
c2 p1 | 35 | 35
c2 p2 | 8  | 7
c2 p3 | 5  | 5
c3 p1 | 6  | 5
c3 p2 | 40 | 35
c3 p3 | 5  | 4
c4 p1 | 5  | 5
c4 p2 | 38 | 36
c4 p3 | 6  | 6`,
			mined:  []model.Measure{model.Sum("Sales"), model.Count("*")},
			impact: model.Count("*"),
			tune:   func(c *Config) { c.MaxSubspaceFilters = 1 },
			check: func(t *testing.T, o *bruteForce, _ []toyRow) {
				if o.exactTau == 0 {
					t.Error("no Sim class has a ratio of exactly τ")
				}
			},
		},
		{
			name: "ledger",
			dims: []toyDim{
				{name: "A", domain: []string{"a1", "a2", "a3"}},
				{name: "D", domain: []string{"d1", "d2", "d3", "d4"}},
				{name: "B", domain: []string{"b1", "b2", "b3"}},
			},
			measure: "Amount",
			// SUM(Amount) is 100: 25 per value of D, 40 / 35 / 25 per value
			// of A, but 40 in (a1, d1) and 35 in (a1, d2).
			rows: `
a1 d1 | 10,10,10 | 6        | 4
a1 d2 | 10,10,5  | 6        | 4
a1 d3 | -5,-5,-6 | -2       | -2
a1 d4 | -3       | -4,-4,-2 | -2
a2 d1 | -2,-2,-2 | -2       | -2
a2 d2 | -1,-1,-1 | -1       | -1
a2 d3 | 5,5,5    | 5        | 5
a2 d4 | 8,7,5    | 3        | 2
a3 d1 | -1,-1,-1 | -1       | -1
a3 d2 | -2,-1,-1 | -1       | 0
a3 d3 | 4,4,4    | 4        | 4
a3 d4 | 5,5,2    | 2        | 1`,
			mined:  []model.Measure{model.Sum("Amount"), model.Count("*")},
			impact: model.Sum("Amount"),
			// Thresholds above 1/4, so that D's heaviest value is under
			// the frontier's floor while (a1, d1) and (a1, d2) are above it.
			tune: func(c *Config) { c.MinImpact, c.MinSubspaceImpact = 0.3, 0.3 },
			check: func(t *testing.T, o *bruteForce, rows []toyRow) {
				if !slices.ContainsFunc(rows, func(r toyRow) bool { return r.val < 0 }) {
					t.Error("the SUM impact column has no negative value")
				}
				if !o.explored(map[string]string{"A": "a1", "D": "d1"}) {
					t.Error("(a1, d1) is not on the frontier")
				}
			},
		},
		shop,
		capped,
		{
			name: "commas",
			dims: []toyDim{
				{name: "Store", domain: []string{"s1", "s2", "s3"}},
				{name: "Item", domain: []string{"a", "a,b", "b", "b,c", "c"}},
			},
			measure: "Sales",
			// SUM(Sales) by Item: the top two are ("a,b", "c") in s1 and
			// s3 but ("a", "b,c") in s2.
			rows: `
s1 | 10  | 100 | 8 | 7  | 90
s2 | 100 | 10  | 8 | 90 | 7
s3 | 9   | 95  | 8 | 6  | 88`,
			mined:  []model.Measure{model.Sum("Sales")},
			impact: model.Sum("Sales"),
			check: func(t *testing.T, o *bruteForce, _ []toyRow) {
				top2 := func(store string) pattern.Highlight {
					holds, _ := o.evaluate(oracleScope{map[string]string{"Store": store}, "Item", model.Sum("Sales")})
					return holds[pattern.OutstandingTop2]
				}
				a, b := top2("s1"), top2("s2")
				if len(a.Positions) != 2 || slices.Equal(a.Positions, b.Positions) || strings.Join(a.Positions, ",") != strings.Join(b.Positions, ",") {
					t.Errorf("Outstanding Top-2 highlights %q and %q are not two that one joined string merges", a.Positions, b.Positions)
				}
			},
		},
	}
}
