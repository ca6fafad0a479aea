// Package sched makes FLeet's task admission and scheduling pluggable: the
// downlink half of Figure 2 — steps (1)–(4): I-Prof batch sizing, the
// similarity controller, model distribution — expressed as a chain of
// AdmissionPolicy values instead of a hardwired block inside the server.
//
// Each policy sees one in-flight TaskRequest and returns a Decision:
// accept (possibly adjusting the prescribed mini-batch size, which threads
// through the chain) or reject with a reason. Built-ins mirror the paper's
// controller:
//
//	iprof-time(slo)        — I-Prof computation-time batch sizing (§2.2)
//	iprof-energy(slo)      — I-Prof energy batch sizing, lowers the batch
//	min-batch(n)           — reject predicted batches below n
//	similarity(max)        — reject tasks whose label similarity exceeds max
//	per-worker-quota(n,s)  — at most n admits per worker per s seconds
//
// Controller is the same controller with percentile thresholds over the
// history of tasks it has seen (§3.5, Figure 15); it is built in Go only.
//
// Policies compose programmatically (NewChain) or from string specs via
// the name→constructor registry (Build), exactly like pipeline.Build for
// the uplink; the composed chain drives ServerConfig.Admission and the
// fleet-server -admission flag.
package sched

import (
	"context"

	"fleet/internal/protocol"
)

// TaskRequest is the in-flight admission context a policy chain evaluates.
// It wraps the wire request with the server-side state the controller
// decides on; policies mutate nothing except through the returned Decision.
type TaskRequest struct {
	// Wire is the worker's request as received.
	Wire *protocol.TaskRequest
	// BatchSize is the mini-batch size prescribed so far. It starts at
	// the server's default and threads through the chain: a profiler
	// policy's accepted BatchSize becomes the next policy's input.
	BatchSize int
	// Similarity is sim(x) = BC(LD(x), LD_global), computed once by the
	// server against the label tracker before the chain runs.
	Similarity float64
}

// Decision is one policy's verdict on a task request.
type Decision struct {
	// Accept admits the task (possibly with an adjusted BatchSize);
	// !Accept rejects it with Reason.
	Accept bool
	// Reason is the human-readable rejection reason returned to the
	// worker in TaskResponse.Reason.
	Reason string
	// Policy names the policy that produced a rejection, feeding the
	// per-policy reject counters in /v1/stats. Empty on accepts.
	Policy string
	// BatchSize is the prescribed mini-batch size after this policy.
	// Meaningful on accepts; the chain threads it into the next policy.
	BatchSize int
}

// Accept builds an accepting decision carrying the batch size forward.
func Accept(batch int) Decision { return Decision{Accept: true, BatchSize: batch} }

// Reject builds a rejecting decision attributed to the named policy.
func Reject(policy, reason string) Decision {
	return Decision{Accept: false, Policy: policy, Reason: reason}
}

// AdmissionPolicy decides whether (and at what mini-batch size) one task
// request is admitted. Implementations must be safe for concurrent use:
// the server calls Admit from many handler goroutines. A policy holding
// per-worker state (e.g. the quota policy) is stateful — build one per
// server, never share an instance between servers.
type AdmissionPolicy interface {
	// Name returns the policy's display name (exposed in /v1/stats).
	Name() string
	// Admit evaluates req. Returning an error aborts admission with a
	// structured error to the caller (reserved for genuine failures);
	// policy rejections are Decisions with Accept == false.
	Admit(ctx context.Context, req *TaskRequest) (Decision, error)
}

// Chain evaluates policies in order, threading the accepted batch size
// from each into the next. The first rejection wins; an empty chain
// admits everything at the incoming batch size. A *Chain is itself an
// AdmissionPolicy, so chains nest.
type Chain struct {
	policies []AdmissionPolicy
}

// NewChain composes policies in evaluation order.
func NewChain(policies ...AdmissionPolicy) *Chain {
	return &Chain{policies: policies}
}

// Name implements AdmissionPolicy.
func (c *Chain) Name() string { return "chain" }

// Admit implements AdmissionPolicy.
func (c *Chain) Admit(ctx context.Context, req *TaskRequest) (Decision, error) {
	for _, p := range c.policies {
		d, err := p.Admit(ctx, req)
		if err != nil {
			return Decision{}, err
		}
		if !d.Accept {
			if d.Policy == "" {
				d.Policy = p.Name()
			}
			return d, nil
		}
		req.BatchSize = d.BatchSize
	}
	return Accept(req.BatchSize), nil
}

// Names returns the chained policy names in evaluation order, flattening
// nested chains — the /v1/stats admission_policies view.
func (c *Chain) Names() []string {
	var out []string
	for _, p := range c.policies {
		out = append(out, Names(p)...)
	}
	return out
}

// Names describes any policy as a flat name list: chains expand to their
// members, everything else to its own name. A nil policy is an empty,
// admit-all chain.
func Names(p AdmissionPolicy) []string {
	switch c := p.(type) {
	case nil:
		return nil
	case *Chain:
		return c.Names()
	default:
		return []string{p.Name()}
	}
}
