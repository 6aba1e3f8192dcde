package search

import (
	"context"
	"fmt"
	"time"
)

// Canceled reports a run that a Cancel hook stopped cooperatively: the
// engines completed Done whole units (BFS levels, multi-source sweeps,
// or Δ-stepping epochs — Unit names which), agreed collectively to
// stop, and the Run wrapper returned the partial Result alongside this
// error. Cause is the hook's reason on the rank that first observed it
// (nil on a Canceled built from a rank that only learned of the
// cancellation through the reduction).
type Canceled struct {
	// Unit is the boundary granularity: "level", "sweep", or "epoch".
	Unit string
	// Done counts the whole units completed before the stop.
	Done int
	// Cause is the non-nil error the Cancel hook returned, when this
	// rank observed one itself.
	Cause error
}

func (e *Canceled) Error() string {
	cause := "canceled"
	if e.Cause != nil {
		cause = e.Cause.Error()
	}
	return fmt.Sprintf("search: run canceled after %d complete %ss: %s", e.Done, e.Unit, cause)
}

func (e *Canceled) Unwrap() error { return e.Cause }

// MergeCanceled picks the authoritative Canceled out of the per-rank
// slice a Run wrapper collected: the ranks all stop at the same
// boundary, so any entry works, but one whose hook actually fired (a
// non-nil Cause) carries the better message.
func MergeCanceled(cs []*Canceled) *Canceled {
	var m *Canceled
	for _, c := range cs {
		if c == nil {
			continue
		}
		if m == nil || (m.Cause == nil && c.Cause != nil) {
			m = c
		}
	}
	return m
}

// Poll asks the Cancel hook, at a boundary after done whole units, whether
// the run should stop, and reduces the verdict through or — the
// family's collective or-reduction — so every rank agrees. A nil hook
// costs nothing: no call, no reduction.
func (o *Common) Poll(or func(bool) bool, clock float64, unit string, done int) *Canceled {
	if o.Cancel == nil {
		return nil
	}
	cause := o.Cancel(clock)
	if !or(cause != nil) {
		return nil
	}
	return &Canceled{Unit: unit, Done: done, Cause: cause}
}

// ChainCancel composes two Cancel hooks: the combined hook fires when
// either does. Nil hooks are identity.
func ChainCancel(prev, next func(simSeconds float64) error) func(simSeconds float64) error {
	if prev == nil {
		return next
	}
	if next == nil {
		return prev
	}
	return func(sim float64) error {
		if err := prev(sim); err != nil {
			return err
		}
		return next(sim)
	}
}

// ContextCancel adapts a context into a Cancel hook: the run stops at
// the first boundary after the context is done, with the context's
// cause as the reason.
func ContextCancel(ctx context.Context) func(simSeconds float64) error {
	return func(float64) error { return context.Cause(ctx) }
}

// DeadlineCancel builds a Cancel hook that fires once the wall clock
// passes t.
func DeadlineCancel(t time.Time) func(simSeconds float64) error {
	return func(float64) error {
		if over := time.Since(t); over > 0 {
			return fmt.Errorf("wall deadline exceeded (%v past)", over.Round(time.Millisecond))
		}
		return nil
	}
}

// SimBudgetCancel builds a Cancel hook that fires once the rank's
// simulated clock passes the budget — a deterministic ceiling on how
// much modeled execution a single run may consume.
func SimBudgetCancel(seconds float64) func(simSeconds float64) error {
	return func(sim float64) error {
		if sim > seconds {
			return fmt.Errorf("simulated-execution budget exceeded (%.3gs > %.3gs)", sim, seconds)
		}
		return nil
	}
}
