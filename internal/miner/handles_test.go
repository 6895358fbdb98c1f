package miner

import (
	"reflect"
	"testing"

	"metainsight/internal/core"
	"metainsight/internal/engine"
	"metainsight/internal/model"
	"metainsight/internal/pattern"
	"metainsight/internal/workload"
)

// TestUnitsCarryHandlesThatAgreeWithTheirValues walks the search frontier
// unit by unit and checks every produced unit's interned side against its
// model-value side: handles name the unit's subspaces, MetaInsight
// candidates build exactly the HDS the value-level constructors of
// internal/core build (the miner assembles it from handles instead), and the
// identity key the candidate's ordinal key renders is the HDS's own.
func TestUnitsCarryHandlesThatAgreeWithTheirValues(t *testing.T) {
	tab := workload.HotelBooking() // two temporal dimensions: all three extensions fire
	eng, err := engine.New(tab, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(eng, DefaultConfig())
	dims := tab.DimensionNames()

	queue := []*workUnit{{kind: kindExpand, priority: 1, subspace: model.EmptySubspace,
		handle: eng.Intern(model.EmptySubspace), impact: 1, maxDimIdx: -1}}
	kinds := make(map[model.ExtensionKind]int)
	sc := new(scratch)
	for n := 0; len(queue) > 0 && n < 400; n++ {
		u := queue[0]
		queue = queue[1:]
		c := m.process(u, sc)
		for _, p := range c.produced {
			if p.handle.Key() != p.subspace.Key() || p.handle.Subspace().Key() != p.subspace.Key() {
				t.Fatalf("%s unit: handle %q for subspace %q", p.kind, p.handle.Key(), p.subspace.Key())
			}
			if p.kind == kindDataPattern && dims[p.bdim] != p.breakdown {
				t.Fatalf("data-pattern unit: bdim %d (%s) for breakdown %q", p.bdim, dims[p.bdim], p.breakdown)
			}
			queue = append(queue, p)
		}
		for i := range c.cands {
			cand := &c.cands[i]
			scopes := m.hdsRefs(nil, cand)
			hds := m.hdsOf(cand, scopes)
			miKey := m.candLabel(cand.key)
			kinds[hds.Kind]++
			var want core.HDS
			switch hds.Kind {
			case model.ExtendSubspace:
				want = core.SubspaceHDS(hds.Anchor, hds.ExtDim, tab.Dimension(hds.ExtDim).Domain())
			case model.ExtendMeasure:
				want = core.MeasureHDS(hds.Anchor, eng.Measures())
			case model.ExtendBreakdown:
				want = core.BreakdownHDS(hds.Anchor, tab.TemporalDimensions())
			}
			if !reflect.DeepEqual(hds, want) {
				t.Fatalf("unit %s holds\n %+v\nthe formulation builds\n %+v", miKey, hds, want)
			}
			if key := want.Key() + "|" + pattern.Type(cand.key.ptype).String(); miKey != key {
				t.Fatalf("candidate key renders %q, the HDS key gives %q", miKey, key)
			}
			if int(cand.n) != len(hds.Scopes) {
				t.Fatalf("unit %s: candidate size %d beside %d scopes", miKey, cand.n, len(hds.Scopes))
			}
			if len(scopes) != len(hds.Scopes) {
				t.Fatalf("unit %s: %d scope refs beside %d scopes", miKey, len(scopes), len(hds.Scopes))
			}
			for i, sc := range hds.Scopes {
				ref := scopes[i]
				if ref.h != eng.Intern(sc.Subspace) || dims[ref.bdim] != sc.Breakdown || eng.Measures()[ref.measure] != sc.Measure {
					t.Fatalf("unit %s scope %d: ref (%q, %s) beside scope %s", miKey, i, ref.h.Key(), dims[ref.bdim], sc)
				}
			}
		}
	}
	for _, k := range []model.ExtensionKind{model.ExtendSubspace, model.ExtendMeasure, model.ExtendBreakdown} {
		if kinds[k] == 0 {
			t.Errorf("the walk produced no %s unit", k)
		}
	}
}

// TestMinedKeysAreMemoizedCorrectly checks the key every mined MetaInsight
// memoizes (handed to it from the unit's identity) against the key computed
// from its HDP.
func TestMinedKeysAreMemoizedCorrectly(t *testing.T) {
	res := runMiner(t, workload.CreditCard(), nil)
	if len(res.All()) == 0 {
		t.Fatal("nothing mined")
	}
	for _, mi := range res.All() {
		fresh := core.HDP{HDS: mi.HDP.HDS, Type: mi.HDP.Type}
		if mi.Key() != fresh.Key() {
			t.Errorf("memoized key %q, computed %q", mi.Key(), fresh.Key())
		}
	}
}
