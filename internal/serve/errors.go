package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// ErrorCode is the machine-readable classification every non-2xx response
// carries. Clients branch on the code, not the message: the code is a stable
// wire contract, the message is for humans.
type ErrorCode string

const (
	// CodeQueueFull: the admission wait queue is at capacity; the request
	// was shed without queuing (503).
	CodeQueueFull ErrorCode = "queue_full"
	// CodeDeadlineUnattainable: the admission controller's wait estimate
	// says the request cannot start before its deadline, so it was rejected
	// immediately instead of queuing to die (503).
	CodeDeadlineUnattainable ErrorCode = "deadline_unattainable"
	// CodeDeadlineExpired: the request's deadline fired while it was still
	// waiting for an execution slot (503).
	CodeDeadlineExpired ErrorCode = "deadline_expired"
	// CodeQuotaExhausted: the tenant's token bucket is empty (429); the
	// Retry-After header and retry_after_ms field say when one token
	// refills.
	CodeQuotaExhausted ErrorCode = "quota_exhausted"
	// CodeShuttingDown: the server is draining and accepts no new work (503).
	CodeShuttingDown ErrorCode = "shutting_down"
	// CodeNotFound: unknown dataset or job id (404).
	CodeNotFound ErrorCode = "not_found"
	// CodeBadRequest: malformed body or invalid parameter combination (400).
	CodeBadRequest ErrorCode = "bad_request"
	// CodeInternal: an unexpected server-side failure (500).
	CodeInternal ErrorCode = "internal"
)

// APIError is the typed error body of every non-2xx response:
//
//	{"error": {"code": "...", "message": "...", "retry_after_ms": 1200}}
//
// It implements error so the admission controller, quota layer and handlers
// can pass one value through ordinary error returns.
type APIError struct {
	Code       ErrorCode `json:"code"`
	Message    string    `json:"message"`
	RetryAfter int64     `json:"retry_after_ms,omitempty"`

	status int
}

// Error implements the error interface.
func (e *APIError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// HTTPStatus returns the HTTP status the error maps to.
func (e *APIError) HTTPStatus() int {
	if e.status != 0 {
		return e.status
	}
	return http.StatusInternalServerError
}

func apiErrorf(status int, code ErrorCode, format string, args ...any) *APIError {
	return &APIError{Code: code, Message: fmt.Sprintf(format, args...), status: status}
}

// writeAPIError renders e as its JSON body with the mapped status, setting
// Retry-After when the error carries a retry hint.
func writeAPIError(w http.ResponseWriter, e *APIError) {
	w.Header().Set("Content-Type", "application/json")
	if e.RetryAfter > 0 {
		secs := (e.RetryAfter + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.WriteHeader(e.HTTPStatus())
	_ = json.NewEncoder(w).Encode(struct {
		Error *APIError `json:"error"`
	}{e})
}

// retryAfterMS converts a duration into the wire's millisecond hint,
// rounding up so clients never retry early.
func retryAfterMS(d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	ms := int64(d / time.Millisecond)
	if d%time.Millisecond != 0 {
		ms++
	}
	if ms == 0 {
		ms = 1
	}
	return ms
}
