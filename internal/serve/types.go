package serve

import (
	"fmt"
	"strings"

	"metainsight"
)

// AnalyzeParams is the wire form of one analysis parameterization, shared by
// the synchronous /v1/analyze endpoint and durable job specs. Zero-valued
// fields take the library defaults. Durable jobs deliberately have no
// wall-clock budget field: jobs are bounded by deterministic cost units
// (BudgetCost) so a job re-mined after a restart is bit-identical to an
// uninterrupted one;
// synchronous requests bound wall time through the X-Deadline-Ms header,
// which propagates as context cancellation into the miner's commit loop.
type AnalyzeParams struct {
	// Dataset names a registered dataset.
	Dataset string `json:"dataset"`
	// TopK is the ranked suggestion count (default 10).
	TopK int `json:"top_k,omitempty"`
	// Tau is the commonness threshold τ (default 0.5); a non-zero τ must lie
	// strictly between 0 and 1.
	Tau float64 `json:"tau,omitempty"`
	// MaxFilters caps subspace depth (default 3).
	MaxFilters int `json:"max_filters,omitempty"`
	// BudgetCost bounds mining by deterministic engine cost units (0 =
	// unbounded).
	BudgetCost float64 `json:"budget_cost,omitempty"`
	// Measures overrides the mined measure set (default: SUM over every
	// measure column plus COUNT(*)).
	Measures []MeasureSpec `json:"measures,omitempty"`
	// Trace, on the synchronous endpoint, attaches a per-request observer
	// and returns its metrics snapshot and structured trace in the response.
	// Ignored for jobs.
	Trace bool `json:"trace,omitempty"`
}

// MeasureSpec is the wire form of one measure, e.g. {"agg":"SUM","column":"Sales"}.
type MeasureSpec struct {
	Agg    string `json:"agg"`
	Column string `json:"column"`
}

func (m MeasureSpec) toMeasure() (metainsight.Measure, error) {
	switch strings.ToUpper(strings.TrimSpace(m.Agg)) {
	case "SUM":
		return metainsight.Sum(m.Column), nil
	case "COUNT":
		return metainsight.Count(m.Column), nil
	case "AVG":
		return metainsight.Avg(m.Column), nil
	case "MIN":
		return metainsight.Min(m.Column), nil
	case "MAX":
		return metainsight.Max(m.Column), nil
	default:
		return metainsight.Measure{}, fmt.Errorf("unknown aggregate %q (want SUM/COUNT/AVG/MIN/MAX)", m.Agg)
	}
}

// validate performs the cheap wire-level checks; option conflicts beyond
// these surface from the library's typed construction errors.
func (p AnalyzeParams) validate() error {
	if p.Dataset == "" {
		return fmt.Errorf("missing dataset name")
	}
	if p.TopK < 0 || p.MaxFilters < 0 {
		return fmt.Errorf("top_k and max_filters must be non-negative")
	}
	if p.BudgetCost < 0 {
		return fmt.Errorf("budget_cost must be non-negative")
	}
	if p.Tau != 0 && !(p.Tau > 0 && p.Tau < 1) {
		return fmt.Errorf("tau must lie strictly between 0 and 1 (0 keeps the default 0.5)")
	}
	for _, m := range p.Measures {
		if _, err := m.toMeasure(); err != nil {
			return err
		}
	}
	return nil
}

// request lowers the wire params to a library Request. TopK defaults to 10.
func (p AnalyzeParams) request() (metainsight.Request, error) {
	if err := p.validate(); err != nil {
		return metainsight.Request{}, err
	}
	req := metainsight.Request{
		TopK:       p.TopK,
		Tau:        p.Tau,
		MaxFilters: p.MaxFilters,
	}
	if req.TopK == 0 {
		req.TopK = 10
	}
	if p.BudgetCost > 0 {
		req.Budget = metainsight.Budget{Cost: p.BudgetCost}
	}
	for _, m := range p.Measures {
		mm, err := m.toMeasure()
		if err != nil {
			return metainsight.Request{}, err
		}
		req.Measures = append(req.Measures, mm)
	}
	return req, nil
}

// JobSpec is the durable record of one submitted job — everything needed to
// re-create the identical run after a crash. It is journaled (atomic write +
// rename + directory fsync) to <state>/jobs/<id>/spec.json before the job is
// acknowledged, so an accepted job survives kill -9 of the daemon.
type JobSpec struct {
	ID            string        `json:"id"`
	Tenant        string        `json:"tenant"`
	Params        AnalyzeParams `json:"params"`
	SubmittedUnix int64         `json:"submitted_unix"`
}

// JobState is the lifecycle of a durable job. queued → running → done |
// failed; a job interrupted by shutdown or crash returns to queued at the
// next startup and mines again from the start.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)
