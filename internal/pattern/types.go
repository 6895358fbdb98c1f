// Package pattern implements the paper's basic data patterns (Section 3.1,
// Table 1, Appendix 9.1): eleven pattern types, each with an evaluation
// criterion Evaluate(ds, type) and a type-dependent highlight encoding the
// essential characteristics of the raw data distribution. The package is
// pattern-type agnostic in the paper's sense: evaluators operate on a plain
// (keys, values) series plus a temporal flag, so domain-specific types can be
// added without touching the mining machinery.
package pattern

import (
	"fmt"
	"slices"
	"strings"
)

// Type enumerates the supported basic data pattern types plus the two
// placeholder outcomes of the type-induced generative function dp(ds, type).
type Type int

const (
	// OutstandingFirst: one subspace has a noticeably higher aggregate than
	// all others. Highlight: that subspace.
	OutstandingFirst Type = iota
	// OutstandingLast: one subspace is noticeably lower than all others.
	OutstandingLast
	// OutstandingTop2: two subspaces are noticeably higher than the rest.
	OutstandingTop2
	// OutstandingLast2: two subspaces are noticeably lower than the rest.
	OutstandingLast2
	// Evenness: all subspaces are distributed evenly.
	Evenness
	// Attribution: one subspace's aggregate dominates (accounts for the
	// majority of) the total. Highlight: that subspace.
	Attribution
	// Trend: a temporal series trends upward or downward. Highlight: the
	// direction.
	Trend
	// Outlier: a temporal series has 3-sigma outliers against a
	// non-parametric regression baseline. Highlight: outlier positions and
	// whether they lie above or below the baseline.
	Outlier
	// Seasonality: a temporal series repeats with a fixed period.
	// Highlight: the period length.
	Seasonality
	// ChangePoint: the mean of a temporal series shifts significantly at
	// one position. Highlight: that position.
	ChangePoint
	// Unimodality: a temporal series forms a U-shaped valley or peak.
	// Highlight: the extremum position and peak/valley indication.
	Unimodality

	// NumTypes is the number of built-in pattern types (11 in the paper).
	// Custom domain-specific types registered through Config.Custom are
	// assigned Type values starting at NumTypes (see CustomType).
	NumTypes
)

const (
	// OtherPattern is the dp(ds, type) placeholder when the requested type
	// does not hold but some other type does (Section 3.1, case 2).
	OtherPattern Type = -1 - iota
	// NoPattern is the placeholder when no type holds (case 3).
	NoPattern
)

// CustomType returns the Type value of the i-th custom evaluator in a
// Config's Custom slice.
func CustomType(i int) Type { return NumTypes + Type(i) }

var typeNames = [...]string{
	OutstandingFirst: "Outstanding #1",
	OutstandingLast:  "Outstanding #Last",
	OutstandingTop2:  "Outstanding Top-2",
	OutstandingLast2: "Outstanding Last-2",
	Evenness:         "Evenness",
	Attribution:      "Attribution",
	Trend:            "Trend",
	Outlier:          "Outlier",
	Seasonality:      "Seasonality",
	ChangePoint:      "Change Point",
	Unimodality:      "Unimodality",
}

// String returns the display name of the pattern type. Custom types render
// as "Custom(i)" — Config.TypeName resolves their registered names.
func (t Type) String() string {
	switch {
	case t >= 0 && t < NumTypes:
		return typeNames[t]
	case t >= NumTypes:
		return fmt.Sprintf("Custom(%d)", int(t-NumTypes))
	case t == OtherPattern:
		return "Other Pattern"
	case t == NoPattern:
		return "No Pattern"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Concrete reports whether t is a real pattern type — built-in or custom —
// as opposed to the OtherPattern/NoPattern placeholders.
func (t Type) Concrete() bool { return t >= 0 }

// TemporalOnly reports whether the built-in type's evaluation criterion
// requires a temporal breakdown (the time-series perspectives of Table 1).
// For custom types, consult the CustomEvaluator's TemporalOnly field.
func (t Type) TemporalOnly() bool {
	switch t {
	case Trend, Outlier, Seasonality, ChangePoint, Unimodality:
		return true
	default:
		return false
	}
}

// Highlight encodes the essential, type-dependent characteristics extracted
// by a successful evaluation (Definition 3.1). Two data patterns within an
// HDP are similar iff they share both type and highlight (Equation 8), so
// Highlight equality — Equal — defines the Sim equivalence relation.
type Highlight struct {
	// Positions are the breakdown values the pattern points at: the
	// outstanding subspace(s), the outlier positions, the unimodal extremum,
	// the change point. Order is canonical (as produced by the evaluator).
	Positions []string
	// Label qualifies the pattern: "increasing"/"decreasing" for Trend,
	// "peak"/"valley" for Unimodality, "above"/"below" for Outlier,
	// "period=N" for Seasonality. Empty when the type needs no qualifier.
	Label string
}

// Equal reports whether two highlights are the same: the same label and the
// same positions in the same order. It is the Sim equivalence relation's
// highlight half.
func (h Highlight) Equal(o Highlight) bool {
	return h.Label == o.Label && slices.Equal(h.Positions, o.Positions)
}

// String renders the highlight for display.
func (h Highlight) String() string {
	switch {
	case len(h.Positions) == 0 && h.Label == "":
		return "(none)"
	case len(h.Positions) == 0:
		return h.Label
	case h.Label == "":
		return strings.Join(h.Positions, ", ")
	default:
		return h.Label + ": " + strings.Join(h.Positions, ", ")
	}
}

// Evaluation is the outcome of Evaluate(ds, type) for one concrete type.
type Evaluation struct {
	// Valid is the boolean result of the evaluation criterion.
	Valid bool
	// Highlight is set when Valid.
	Highlight Highlight
	// Strength grades how strongly the criterion held, in [0, 1]
	// (1 - p-value where a test produces one). It is informational — the
	// MetaInsight score does not depend on it — but the QuickInsight
	// baseline ranks by it.
	Strength float64
}

// Hold is one concrete type that holds for a scope, with its evaluation.
type Hold struct {
	Type Type
	Evaluation
}

// ScopeEvaluation is the evaluation of one data scope across every concrete
// type — the eleven built-ins followed by any custom types of the Config. It
// is the pattern cache's value type: evaluating dp(ds, t) requires knowing
// whether any other type holds, so all types are evaluated together and
// memoized as one entry. Only the types that hold are kept, usually one or
// two of a dozen, because a Session keeps one entry per scope for its
// lifetime. A ScopeEvaluation is immutable once returned; scopes where
// nothing holds all share one value.
type ScopeEvaluation struct {
	// Holds lists the types that hold, in ascending type order.
	Holds []Hold
}

// AnyValid reports whether some concrete type holds for the scope.
func (se *ScopeEvaluation) AnyValid() bool { return len(se.Holds) > 0 }

// Induced applies the paper's type-induced generative function dp(ds, type):
// it returns (type, highlight) if type holds; (OtherPattern, zero) if some
// other type holds; (NoPattern, zero) otherwise.
func (se *ScopeEvaluation) Induced(t Type) (Type, Highlight) {
	if !t.Concrete() {
		panic(fmt.Sprintf("pattern: Induced called with invalid type %v", t))
	}
	for _, h := range se.Holds {
		if h.Type == t {
			return t, h.Highlight
		}
	}
	if se.AnyValid() {
		return OtherPattern, Highlight{}
	}
	return NoPattern, Highlight{}
}
