package service

import "context"

// Lease is the context a wire endpoint calls a Service under when it only
// borrows the storage behind the reply: it encodes the reply, or writes it
// out by reference, then calls Release. A serving core that finds one may
// answer with storage it means to write again (a snapshot's parameters) and
// Hold what must be released first; under any other context the caller keeps
// what it was served. One Lease per call. It travels with the context: a
// layer that keeps a reply past its own return (a cache, an edge's upstream
// pull) calls the next under Keeping(ctx); node's guard test lists the calls
// that only hand the reply back up (TestForwardedTaskCallsKeepOrPassThrough).
type Lease struct {
	context.Context
	held interface{ Release() }
}

type leaseKey struct{}

// Value finds the lease itself under its own key.
func (l *Lease) Value(key any) any {
	if key == (leaseKey{}) {
		return l
	}
	return l.Context.Value(key)
}

// LeaseFrom returns the lease ctx derives from, nil when there is none.
func LeaseFrom(ctx context.Context) *Lease {
	l, _ := ctx.Value(leaseKey{}).(*Lease)
	return l
}

// Keeping returns ctx without a lease: what a call under it is served is the
// caller's to keep, whoever releases the lease ctx came with.
func Keeping(ctx context.Context) context.Context {
	return context.WithValue(ctx, leaseKey{}, (*Lease)(nil))
}

// Hold makes r's release the lease's.
func (l *Lease) Hold(r interface{ Release() }) { l.held = r }

// Release ends the borrow, if there is one.
func (l *Lease) Release() {
	if l.held != nil {
		l.held.Release()
		l.held = nil
	}
}
