package tenant

import (
	"sync/atomic"

	"fleet/internal/dp"
)

// Budget is a tenant's differential-privacy epsilon accountant: every
// admitted push is one more composition of the tenant pipeline's sampled
// Gaussian mechanism (the dp(clip,σ) stage), and the moments accountant
// (internal/dp) converts the running step count into the ε spent. When the
// next push would overspend the configured budget the tenant goes
// read-only: pulls and stats still serve, pushes fail with the structured
// budget_exhausted error.
//
// The exhaustion point is precomputed (the largest step count whose ε stays
// within budget), so the hot path is one atomic load — and deterministic:
// equal (q, σ, δ, ε) always exhaust at the same push count.
type Budget struct {
	limit    float64
	maxSteps int64
	acct     *dp.Accountant
	charges  atomic.Int64
}

// NewBudget builds the accountant for a tenant whose dp stage runs at noise
// multiplier sigma with sampling ratio q, targeting an (epsilon, delta)
// budget.
func NewBudget(q, sigma, delta, epsilon float64) (*Budget, error) {
	acct, err := dp.NewAccountant(q, sigma, delta)
	if err != nil {
		return nil, err
	}
	return &Budget{
		limit:    epsilon,
		maxSteps: int64(acct.StepsFor(epsilon)),
		acct:     acct,
	}, nil
}

// Exhausted reports whether one more charged push would overspend.
func (b *Budget) Exhausted() bool { return b.charges.Load() >= b.maxSteps }

// Charge accounts one admitted push.
func (b *Budget) Charge() { b.charges.Add(1) }

// Charges returns how many pushes have been charged so far.
func (b *Budget) Charges() int { return int(b.charges.Load()) }

// Limit returns the configured ε budget.
func (b *Budget) Limit() float64 { return b.limit }

// Spent returns the ε the charged pushes have composed to.
func (b *Budget) Spent() float64 { return b.acct.EpsilonAt(b.Charges()) }
