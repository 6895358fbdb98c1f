// Package workload generates the deterministic synthetic datasets the
// reproduction experiments run on, standing in for the paper's 35
// proprietary real-world datasets (Section 5.1.1) and the four user-study
// datasets of Table 5 (see DESIGN.md, substitution 2). Every generator
// plants known structure — shared seasonal valleys with a few exceptional
// siblings, trends, outliers, dominant categories — so the miner has real
// commonness/exception structure to find, at the paper's dataset scales
// (one thousand to over one million cells).
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"metainsight/internal/dataset"
	"metainsight/internal/model"
)

// randSource aliases the deterministic PRNG threaded through the generator
// callbacks.
type randSource = rand.Rand

// monthNames is the canonical 12-month temporal domain.
var monthNames = []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}

// namePool returns n deterministic member names with the given prefix, using
// a curated pool first for readability.
func namePool(prefix string, curated []string, n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if i < len(curated) {
			out = append(out, curated[i])
		} else {
			out = append(out, fmt.Sprintf("%s%02d", prefix, i+1))
		}
	}
	return out
}

var (
	cityNames = []string{
		"Los Angeles", "San Francisco", "San Diego", "San Jose", "Sacramento",
		"Fresno", "Oakland", "Long Beach", "Bakersfield", "Anaheim",
		"Riverside", "Stockton", "Irvine", "Chula Vista", "Fremont",
		"Santa Ana", "Modesto", "Glendale", "Yuba", "Amador",
	}
	regionNames  = []string{"North", "South", "East", "West", "Central", "Coastal"}
	channelNames = []string{"Online", "Retail", "Partner", "Direct", "Wholesale", "Outlet"}
	brandNames   = []string{"Acme", "Borealis", "Cygnus", "Dyna", "Everest", "Fulcrum", "Gale", "Helix", "Ion", "Juno", "Kite", "Lumen"}
	segmentNames = []string{"Platinum", "Gold", "Silver", "Standard", "Student", "Corporate"}
)

// shape is a per-member multiplicative monthly curve, the planting mechanism
// for temporal structure.
type shape func(month int, r *rand.Rand) float64

// valleyAt returns a U-shaped curve with its minimum at the given month
// (matching the paper's "bad sales in April" running example).
func valleyAt(valley int, depth float64) shape {
	return func(month int, r *rand.Rand) float64 {
		d := float64(month - valley)
		// Quadratic bowl clamped to [depth, 1].
		v := depth + (1-depth)*d*d/25
		if v > 1 {
			v = 1
		}
		return v * (0.97 + 0.06*r.Float64())
	}
}

// peakAt returns a Λ-shaped curve with its maximum at the given month.
func peakAt(peak int, height float64) shape {
	return func(month int, r *rand.Rand) float64 {
		d := float64(month - peak)
		v := height - (height-1)*d*d/25
		if v < 1 {
			v = 1
		}
		return v * (0.97 + 0.06*r.Float64())
	}
}

// flat returns an even curve (Evenness under the default CV threshold).
func flat() shape {
	return func(month int, r *rand.Rand) float64 {
		return 1 + 0.02*r.Float64()
	}
}

// noisy returns an erratic curve that defeats every pattern criterion.
func noisy() shape {
	return func(month int, r *rand.Rand) float64 {
		return 0.2 + 1.6*r.Float64()
	}
}

// assignShapes gives members of a protagonist dimension their monthly
// curves: most share a commonness curve, with up to three exceptions —
// highlight-change (a shifted curve), type-change (flat ⇒ Evenness holds
// instead) and no-pattern — mirroring Figure 2(b). The exception count
// scales with cardinality so the planted commonness ratio stays well above
// the τ = 0.5 default (ratio ≥ 3/4 for n ≥ 4).
func assignShapes(n int, common shape, altered shape) []shape {
	shapes := make([]shape, n)
	for i := range shapes {
		shapes[i] = common
	}
	exceptions := n / 4
	if exceptions > 3 {
		exceptions = 3
	}
	if exceptions < 1 && n >= 4 {
		exceptions = 1
	}
	kinds := []shape{altered, flat(), noisy()}
	for e := 0; e < exceptions; e++ {
		shapes[n-1-e] = kinds[e]
	}
	return shapes
}

// round2 truncates a float to 2 decimals so generated CSVs stay tidy.
func round2(v float64) float64 { return math.Round(v*100) / 100 }

// zipfWeights returns n member weights following a Zipf-like decay
// normalized to mean 1, the record-count skew of real multi-dimensional
// data: a few heavy members and a long light tail. The skew is what makes
// the impact-ordered search selective — with uniform counts nothing would
// ever be pruned.
func zipfWeights(n int) []float64 {
	const exponent = 0.9
	w := make([]float64, n)
	total := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), exponent)
		total += w[i]
	}
	for i := range w {
		w[i] *= float64(n) / total
	}
	return w
}

// buildTable iterates the full cross product of the dimension domains and
// emits rows per combination, with measures produced by gen. Categorical
// members carry Zipf-like record-count skew (temporal members stay uniform
// so planted time-series shapes are undistorted); the expected total row
// count is the cross-product size times rowsPerCell.
func buildTable(name string, fields []model.Field, domains [][]string,
	rowsPerCell int, seed int64,
	gen func(idx []int, r *rand.Rand) []float64) *dataset.Table {

	weights := make([][]float64, len(domains))
	for d := range domains {
		if fields[d].Kind == model.KindTemporal {
			continue // uniform across periods
		}
		weights[d] = zipfWeights(len(domains[d]))
	}

	b := dataset.NewBuilder(name, fields)
	r := rand.New(rand.NewSource(seed))
	idx := make([]int, len(domains))
	dims := make([]string, len(domains))
	for {
		mult := 1.0
		for d, w := range weights {
			if w != nil {
				mult *= w[idx[d]]
			}
		}
		// Deterministic stochastic rounding keeps the expected row count at
		// rowsPerCell·mult while allowing sub-1 cells to appear sparsely.
		exact := float64(rowsPerCell) * mult
		rows := int(exact)
		if r.Float64() < exact-float64(rows) {
			rows++
		}
		for rep := 0; rep < rows; rep++ {
			for d, i := range idx {
				dims[d] = domains[d][i]
			}
			b.AddRow(dims, gen(idx, r))
		}
		// Odometer increment over the cross product.
		d := len(idx) - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < len(domains[d]) {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			break
		}
	}
	return b.Build()
}
