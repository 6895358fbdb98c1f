package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
)

// wantInsights is the ranked-suggestion count every checked result carries.
const wantInsights = 10

// checker verifies every operation's output and keeps the failure account
// the result line reports. The digest check is the system's own bit-identity
// claim: the same request over the same input must give the same bytes, so
// each input key is compared against the first result seen for it and no
// golden file has to be edited when a later change legitimately moves a
// result.
type checker struct {
	attempted int
	failed    int
	first     map[string]string // input key → digest of its first result
	problems  []string
}

func newChecker() *checker { return &checker{first: map[string]string{}} }

// ranked is what one operation returned, reduced to what the checks need.
type ranked struct {
	key     string    // identifies the input and request shape
	scores  []float64 // Insight.Score() in ranked order
	payload []byte    // ranked insights' JSON followed by Stats.String(); nil skips the digest check
	plain   bool      // a reply that carries no ranking (dataset listing, health probe)
}

func digestOf(payload []byte) string {
	h := sha256.Sum256(payload)
	return hex.EncodeToString(h[:8])
}

// op accounts one attempted operation and what it returned (a sweep returns
// one ranking per table); a non-nil err or any violated invariant makes it
// a failed one.
func (c *checker) op(out []ranked, err error) bool {
	c.attempted++
	why := ""
	if err != nil {
		why = "error: " + err.Error()
	} else if len(out) == 0 {
		why = "no output"
	}
	for _, r := range out {
		if why != "" {
			break
		}
		if w := c.verify(r); w != "" {
			why = r.key + ": " + w
		}
	}
	if why == "" {
		return true
	}
	c.failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, why)
	}
	return false
}

func (c *checker) verify(r ranked) string {
	if !r.plain && len(r.scores) != wantInsights {
		return fmt.Sprintf("%d insights, want %d", len(r.scores), wantInsights)
	}
	for i, s := range r.scores {
		// The ranking is redundancy-aware, so it is not sorted by score; a
		// score itself is conciseness times clamped impact and lies in [0, 1].
		if math.IsNaN(s) || s < 0 || s > 1 {
			return fmt.Sprintf("score %d is %g, outside [0, 1]", i, s)
		}
	}
	if r.payload == nil {
		return ""
	}
	d := digestOf(r.payload)
	if want, seen := c.first[r.key]; !seen {
		c.first[r.key] = d
	} else if d != want {
		return fmt.Sprintf("digest %s differs from the first result's %s", d, want)
	}
	return ""
}

// digests lists key=digest pairs in key order, for printing.
func (c *checker) digests() []string {
	keys := make([]string, 0, len(c.first))
	for k := range c.first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k + "=" + c.first[k]
	}
	return out
}
