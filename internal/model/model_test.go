package model

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestNewSubspaceSortsFilters(t *testing.T) {
	s := NewSubspace(Filter{"Month", "Apr"}, Filter{"City", "LA"})
	if s[0].Dim != "City" || s[1].Dim != "Month" {
		t.Fatalf("filters not sorted: %v", s)
	}
}

func TestNewSubspacePanicsOnDuplicateDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate dimension")
		}
	}()
	NewSubspace(Filter{"City", "LA"}, Filter{"City", "SF"})
}

func TestSubspaceGetHas(t *testing.T) {
	s := NewSubspace(Filter{"City", "LA"}, Filter{"Month", "Apr"})
	if v, ok := s.Get("City"); !ok || v != "LA" {
		t.Errorf("Get(City) = %q, %v", v, ok)
	}
	if _, ok := s.Get("Style"); ok {
		t.Error("Get(Style) should miss")
	}
	if !s.Has("Month") || s.Has("Style") {
		t.Error("Has misbehaves")
	}
}

func TestSubspaceWithInsertsSorted(t *testing.T) {
	s := NewSubspace(Filter{"City", "LA"})
	for _, dim := range []string{"Aaa", "Month", "Zzz"} {
		s2 := s.With(dim, "x")
		if !sort.SliceIsSorted(s2, func(i, j int) bool { return s2[i].Dim < s2[j].Dim }) {
			t.Errorf("With(%q) broke sort order: %v", dim, s2)
		}
		if v, ok := s2.Get(dim); !ok || v != "x" {
			t.Errorf("With(%q) did not insert", dim)
		}
	}
}

func TestSubspaceWithReplaces(t *testing.T) {
	s := NewSubspace(Filter{"City", "LA"})
	s2 := s.With("City", "SF")
	if s2.Len() != 1 {
		t.Fatalf("replace grew subspace: %v", s2)
	}
	if v, _ := s2.Get("City"); v != "SF" {
		t.Errorf("value not replaced: %v", s2)
	}
	// Receiver untouched.
	if v, _ := s.Get("City"); v != "LA" {
		t.Error("With mutated receiver")
	}
}

func TestSubspaceWithoutRemovesOnlyTarget(t *testing.T) {
	s := NewSubspace(Filter{"City", "LA"}, Filter{"Month", "Apr"})
	s2 := s.Without("City")
	if s2.Len() != 1 || s2.Has("City") || !s2.Has("Month") {
		t.Errorf("Without(City) = %v", s2)
	}
	if s.Without("Nope").Key() != s.Key() {
		t.Error("Without of absent dim changed subspace")
	}
}

func TestSubspaceKeyCanonical(t *testing.T) {
	a := NewSubspace(Filter{"City", "LA"}, Filter{"Month", "Apr"})
	b := NewSubspace(Filter{"Month", "Apr"}, Filter{"City", "LA"})
	if a.Key() != b.Key() {
		t.Errorf("keys differ for equal subspaces: %q vs %q", a.Key(), b.Key())
	}
	if EmptySubspace.Key() != "{*}" {
		t.Errorf("empty key = %q", EmptySubspace.Key())
	}
}

func TestSubspaceWithWithoutRoundtrip(t *testing.T) {
	f := func(dims []uint8) bool {
		s := EmptySubspace
		names := []string{"A", "B", "C", "D", "E"}
		for _, d := range dims {
			s = s.With(names[int(d)%len(names)], "v")
		}
		for _, name := range names {
			if s.Has(name) {
				if s.Without(name).With(name, "v").Key() != s.Key() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDataScopeValid(t *testing.T) {
	ds := DataScope{Subspace: NewSubspace(Filter{"City", "LA"}), Breakdown: "Month", Measure: Sum("Sales")}
	if !ds.Valid() {
		t.Error("valid scope reported invalid")
	}
	bad := DataScope{Subspace: NewSubspace(Filter{"Month", "Apr"}), Breakdown: "Month", Measure: Sum("Sales")}
	if bad.Valid() {
		t.Error("scope filtering its own breakdown must be invalid")
	}
	if (DataScope{Measure: Sum("Sales")}).Valid() {
		t.Error("scope without breakdown must be invalid")
	}
}

func TestMeasureStringAndAdditivity(t *testing.T) {
	if got := Sum("Sales").String(); got != "SUM(Sales)" {
		t.Errorf("Sum string = %q", got)
	}
	if got := Count("*").String(); got != "COUNT(*)" {
		t.Errorf("Count string = %q", got)
	}
	if !AggSum.Additive() || !AggCount.Additive() {
		t.Error("SUM/COUNT must be additive")
	}
	if AggAvg.Additive() || AggMin.Additive() || AggMax.Additive() {
		t.Error("AVG/MIN/MAX must not be additive")
	}
}

func TestFilterSet(t *testing.T) {
	s := NewSubspace(Filter{"City", "LA"}, Filter{"Month", "Apr"})
	set := s.FilterSet()
	if len(set) != 2 || !set[Filter{"City", "LA"}] || !set[Filter{"Month", "Apr"}] {
		t.Errorf("FilterSet = %v", set)
	}
	// Pairs, not "Dim=Value" strings: a=(b=c) and (a=b)=c are two filters.
	if set := NewSubspace(Filter{"a", "b=c"}).FilterSet(); set[Filter{"a=b", "c"}] {
		t.Errorf("FilterSet of a=(b=c) holds (a=b)=c: %v", set)
	}
}

func TestDataScopeKeyDistinguishesComponents(t *testing.T) {
	base := DataScope{Subspace: NewSubspace(Filter{"City", "LA"}), Breakdown: "Month", Measure: Sum("Sales")}
	variants := []DataScope{
		{Subspace: NewSubspace(Filter{"City", "SF"}), Breakdown: "Month", Measure: Sum("Sales")},
		{Subspace: base.Subspace, Breakdown: "Quarter", Measure: Sum("Sales")},
		{Subspace: base.Subspace, Breakdown: "Month", Measure: Avg("Sales")},
		{Subspace: base.Subspace, Breakdown: "Month", Measure: Sum("Profit")},
	}
	for _, v := range variants {
		if v.Key() == base.Key() {
			t.Errorf("key collision: %s vs %s", v, base)
		}
	}
}

func TestExtensionKindString(t *testing.T) {
	if ExtendSubspace.String() != "subspace-extending" ||
		ExtendMeasure.String() != "measure-extending" ||
		ExtendBreakdown.String() != "breakdown-extending" {
		t.Error("ExtensionKind names wrong")
	}
}
