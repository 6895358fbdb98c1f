package model

import (
	"slices"
	"testing"
)

// FuzzSubspaceKeyRoundTrip: ParseSubspaceKey, which checkpoint restore uses
// to re-intern the subspaces a snapshot names, inverts Subspace.Key over
// dimension names and values made of the key separators and the escape
// byte, and accepts a string only when it is the Key of a subspace
// NewSubspace builds.
func FuzzSubspaceKeyRoundTrip(f *testing.F) {
	for _, seed := range [][4]string{
		{"City", "LA", "Month", "2019-04"},
		{"A|B", "x;y=z", "C", `\{|}`},
		{"", "", "=", ";"},
		{`\`, "}", "{", `\\`},
		{"*", "", "a", "{*}"},
		{"b", "1", "a", "2"},
		{"a", "=b", "a=", "b"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	f.Fuzz(func(t *testing.T, d1, v1, d2, v2 string) {
		subs := []Subspace{EmptySubspace, NewSubspace(Filter{d1, v1})}
		if d1 != d2 {
			subs = append(subs, NewSubspace(Filter{d1, v1}, Filter{d2, v2}))
		}
		for _, s := range subs {
			back, ok := ParseSubspaceKey(s.Key())
			if !ok || !slices.Equal(back, s) {
				t.Fatalf("ParseSubspaceKey(%q) = %q, %v; want %q", s.Key(), back, ok, s)
			}
		}
		for _, raw := range []string{
			d1,
			"{" + d1 + "}",
			"{" + d1 + "=" + v1 + "}",
			"{" + d1 + "=" + v1 + ";" + d2 + "=" + v2 + "}",
		} {
			back, ok := ParseSubspaceKey(raw)
			if !ok {
				continue
			}
			if k := NewSubspace(back...).Key(); k != raw {
				t.Fatalf("ParseSubspaceKey(%q) accepted %q, whose canonical key is %q", raw, back, k)
			}
		}
	})
}
