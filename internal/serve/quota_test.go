package serve

import (
	"testing"
	"time"
)

func TestQuotaBurstThenDeny(t *testing.T) {
	q := newQuotas(QuotaConfig{Rate: 1, Burst: 2}, nil)
	clock := time.Unix(1000, 0)
	q.now = func() time.Time { return clock }

	if err := q.Allow("acme"); err != nil {
		t.Fatalf("first request denied: %v", err)
	}
	if err := q.Allow("acme"); err != nil {
		t.Fatalf("second (burst) request denied: %v", err)
	}
	err := q.Allow("acme")
	if err == nil {
		t.Fatal("third request allowed, bucket should be empty")
	}
	if err.Code != CodeQuotaExhausted || err.HTTPStatus() != 429 {
		t.Fatalf("denial = %q/%d, want quota_exhausted/429", err.Code, err.HTTPStatus())
	}
	if err.RetryAfter <= 0 || err.RetryAfter > 1000 {
		t.Fatalf("retry_after_ms = %d, want in (0, 1000]", err.RetryAfter)
	}

	// One second refills one token at rate 1.
	clock = clock.Add(time.Second)
	if err := q.Allow("acme"); err != nil {
		t.Fatalf("request after refill denied: %v", err)
	}
	if err := q.Allow("acme"); err == nil {
		t.Fatal("bucket refilled more than rate*elapsed")
	}
}

func TestQuotaTenantsAreIndependent(t *testing.T) {
	q := newQuotas(QuotaConfig{Rate: 1, Burst: 1}, nil)
	clock := time.Unix(1000, 0)
	q.now = func() time.Time { return clock }

	if err := q.Allow("a"); err != nil {
		t.Fatalf("tenant a: %v", err)
	}
	if err := q.Allow("a"); err == nil {
		t.Fatal("tenant a's second request allowed")
	}
	if err := q.Allow("b"); err != nil {
		t.Fatalf("tenant b must have its own bucket: %v", err)
	}
}

func TestQuotaDisabled(t *testing.T) {
	q := newQuotas(QuotaConfig{}, nil)
	for i := 0; i < 100; i++ {
		if err := q.Allow("anyone"); err != nil {
			t.Fatalf("zero-rate config must be unlimited, denied at %d: %v", i, err)
		}
	}
}
