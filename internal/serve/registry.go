package serve

import (
	"fmt"
	"net/http"
	"sort"

	"metainsight"
)

// DatasetSpec names one dataset the daemon serves and how to load it.
type DatasetSpec struct {
	// Name is the registry key requests address the dataset by.
	Name string
	// Path is the CSV file to load.
	Path string
	// MaxCardinality drops categorical columns with more distinct values
	// (0 = library default of no cap; the CLI default is 100).
	MaxCardinality int
	// DeriveTemporal, when set, derives Year/Quarter/Month/Weekday columns
	// from this date column before serving.
	DeriveTemporal string
}

// dsEntry is one loaded dataset plus its long-lived session, which serves
// both synchronous requests and durable jobs.
type dsEntry struct {
	spec DatasetSpec
	ds   *metainsight.Dataset
	sess *metainsight.Session
}

// registry is the daemon's named-session registry. The entry set is fixed
// at startup (and therefore bounded); sessions are closed on server
// shutdown so their intern tables and scan plans are released
// deterministically.
type registry struct {
	entries map[string]*dsEntry
	names   []string
}

func newRegistry(specs []DatasetSpec) (*registry, error) {
	r := &registry{entries: make(map[string]*dsEntry, len(specs))}
	for _, spec := range specs {
		if spec.Name == "" {
			return nil, fmt.Errorf("serve: dataset with empty name (path %q)", spec.Path)
		}
		if _, dup := r.entries[spec.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate dataset name %q", spec.Name)
		}
		var loadOpts []metainsight.LoadOption
		if spec.MaxCardinality > 0 {
			loadOpts = append(loadOpts, metainsight.WithMaxDimensionCardinality(spec.MaxCardinality))
		}
		ds, err := metainsight.OpenCSV(spec.Path, loadOpts...)
		if err != nil {
			return nil, fmt.Errorf("serve: dataset %q: %w", spec.Name, err)
		}
		if spec.DeriveTemporal != "" {
			if ds, err = metainsight.DeriveTemporal(ds, spec.DeriveTemporal); err != nil {
				return nil, fmt.Errorf("serve: dataset %q: %w", spec.Name, err)
			}
		}
		sess, err := metainsight.NewSession(ds)
		if err != nil {
			return nil, fmt.Errorf("serve: dataset %q: %w", spec.Name, err)
		}
		r.entries[spec.Name] = &dsEntry{spec: spec, ds: ds, sess: sess}
		r.names = append(r.names, spec.Name)
	}
	sort.Strings(r.names)
	return r, nil
}

func (r *registry) get(name string) (*dsEntry, bool) {
	e, ok := r.entries[name]
	return e, ok
}

// checkMeasures refuses, with 400 bad_request, a request naming a measure
// the entry's dataset cannot answer (Dataset.ValidateMeasure): a column it
// lacks. Both endpoints call it before any work — before a job's spec is
// journaled and before an analysis takes an admission slot.
func checkMeasures(e *dsEntry, req metainsight.Request) *APIError {
	for _, m := range req.Measures {
		if err := e.ds.ValidateMeasure(m); err != nil {
			return apiErrorf(http.StatusBadRequest, CodeBadRequest, "%v", err)
		}
	}
	return nil
}

// DatasetInfo is the wire form of one registered dataset.
type DatasetInfo struct {
	Name   string      `json:"name"`
	Rows   int         `json:"rows"`
	Cols   int         `json:"cols"`
	Fields []FieldInfo `json:"fields"`
}

// FieldInfo is one column's name and kind.
type FieldInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

func (r *registry) list() []DatasetInfo {
	out := make([]DatasetInfo, 0, len(r.names))
	for _, name := range r.names {
		e := r.entries[name]
		info := DatasetInfo{Name: name, Rows: e.ds.Rows(), Cols: e.ds.Cols()}
		for _, f := range e.ds.Fields() {
			info.Fields = append(info.Fields, FieldInfo{Name: f.Name, Kind: f.Kind.String()})
		}
		out = append(out, info)
	}
	return out
}

func (r *registry) close() {
	for _, e := range r.entries {
		_ = e.sess.Close()
	}
}
