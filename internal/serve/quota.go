package serve

import (
	"net/http"
	"sync"
	"time"

	"metainsight/internal/obs"
)

// QuotaConfig configures the per-tenant token buckets. Every admission
// attempt spends one token; tokens refill continuously at Rate per second up
// to Burst. A zero Rate disables quota enforcement entirely.
type QuotaConfig struct {
	// Rate is the sustained request rate per tenant, in requests/second.
	// 0 disables quotas.
	Rate float64
	// Burst is the bucket capacity — how many requests a tenant may issue
	// back-to-back after an idle period. 0 defaults to max(1, Rate).
	Burst float64
}

// quotas is the token-bucket quota layer. Buckets are created lazily per
// tenant and refill lazily on access, so an idle tenant costs nothing. The
// clock is injectable for tests.
type quotas struct {
	cfg QuotaConfig
	obs *obs.Observer
	now func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newQuotas(cfg QuotaConfig, ob *obs.Observer) *quotas {
	if cfg.Burst == 0 {
		cfg.Burst = cfg.Rate
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	return &quotas{cfg: cfg, obs: ob, now: time.Now, buckets: make(map[string]*bucket)}
}

// Allow spends one token from the tenant's bucket. On an empty bucket it
// returns a typed 429 APIError carrying the refill wait; the caller rejects
// without queuing — quota denials never occupy admission capacity.
func (q *quotas) Allow(tenant string) *APIError {
	rate, burst := q.cfg.Rate, q.cfg.Burst
	if rate <= 0 {
		return nil // unlimited
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	b, ok := q.buckets[tenant]
	if !ok {
		b = &bucket{tokens: burst, last: now}
		q.buckets[tenant] = b
	}
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens = min(b.tokens+elapsed*rate, burst)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		q.obs.Count("serve.quota.allowed", 1)
		return nil
	}
	wait := time.Duration((1 - b.tokens) / rate * float64(time.Second))
	q.obs.Count("serve.quota.denied", 1)
	err := apiErrorf(http.StatusTooManyRequests, CodeQuotaExhausted,
		"tenant %q is over quota (rate %.3g/s, burst %.3g)", tenant, rate, burst)
	err.RetryAfter = retryAfterMS(wait)
	return err
}
