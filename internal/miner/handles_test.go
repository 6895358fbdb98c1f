package miner

import (
	"reflect"
	"testing"

	"metainsight/internal/core"
	"metainsight/internal/engine"
	"metainsight/internal/model"
	"metainsight/internal/workload"
)

// TestUnitsCarryHandlesThatAgreeWithTheirValues walks the search frontier
// unit by unit and checks every produced unit's interned side against its
// model-value side: handles name the unit's subspaces, MetaInsight units
// hold exactly the HDS the value-level constructors of internal/core build
// (the miner assembles it from handles instead), and the identity key
// assembled from handle keys is the HDS's own.
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
	for n := 0; len(queue) > 0 && n < 400; n++ {
		u := queue[0]
		queue = queue[1:]
		for _, p := range m.process(u).produced {
			if p.kind != kindMetaInsight {
				if p.handle.Key() != p.subspace.Key() || p.handle.Subspace().Key() != p.subspace.Key() {
					t.Fatalf("%s unit: handle %q for subspace %q", p.kind, p.handle.Key(), p.subspace.Key())
				}
				if p.kind == kindDataPattern && dims[p.bdim] != p.breakdown {
					t.Fatalf("data-pattern unit: bdim %d (%s) for breakdown %q", p.bdim, dims[p.bdim], p.breakdown)
				}
				queue = append(queue, p)
				continue
			}
			kinds[p.hds.Kind]++
			var want core.HDS
			switch p.hds.Kind {
			case model.ExtendSubspace:
				want = core.SubspaceHDS(p.hds.Anchor, p.hds.ExtDim, tab.Dimension(p.hds.ExtDim).Domain())
			case model.ExtendMeasure:
				want = core.MeasureHDS(p.hds.Anchor, eng.Measures())
			case model.ExtendBreakdown:
				want = core.BreakdownHDS(p.hds.Anchor, tab.TemporalDimensions())
			}
			if !reflect.DeepEqual(p.hds, want) {
				t.Fatalf("unit %s holds\n %+v\nthe formulation builds\n %+v", p.miKey, p.hds, want)
			}
			if key := want.Key() + "|" + p.ptype.String(); p.miKey != key {
				t.Fatalf("unit key %q, HDS key gives %q", p.miKey, key)
			}
			if len(p.scopes) != len(p.hds.Scopes) {
				t.Fatalf("unit %s: %d scope refs beside %d scopes", p.miKey, len(p.scopes), len(p.hds.Scopes))
			}
			for i, sc := range p.hds.Scopes {
				ref := p.scopes[i]
				if ref.h != eng.Intern(sc.Subspace) || dims[ref.bdim] != sc.Breakdown {
					t.Fatalf("unit %s scope %d: ref (%q, %s) beside scope %s", p.miKey, i, ref.h.Key(), dims[ref.bdim], sc)
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
	if len(res.MetaInsights) == 0 {
		t.Fatal("nothing mined")
	}
	for _, mi := range res.MetaInsights {
		fresh := core.HDP{HDS: mi.HDP.HDS, Type: mi.HDP.Type}
		if mi.Key() != fresh.Key() {
			t.Errorf("memoized key %q, computed %q", mi.Key(), fresh.Key())
		}
	}
}
