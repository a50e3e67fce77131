package sched

import (
	"context"
	"errors"

	"gpucmp/internal/fault"
	"gpucmp/internal/kir"
	"gpucmp/internal/sim"
)

// The scheduler's structured error taxonomy. Every job error the
// scheduler returns is classified into exactly one class, and the class is
// errors.Is-able against these sentinels:
//
//	errors.Is(err, sched.ErrTransient) — the failure was momentary; an
//	    identical retry may succeed (the scheduler already retried it up
//	    to the policy's budget before returning).
//	errors.Is(err, sched.ErrPermanent) — retrying cannot help: invalid
//	    job, deterministic failure, panic, or retry budget exhausted.
//	errors.Is(err, sched.ErrWatchdog) — the job was killed by the
//	    watchdog: it exceeded JobTimeout or the device's step budget.
//
// The original cause stays in the chain, so errors.Is against the
// underlying sentinel (sim.ErrWatchdog, fault.ErrTransientLaunch,
// context.DeadlineExceeded, ...) keeps working too.
var (
	ErrTransient = errors.New("sched: transient failure")
	ErrPermanent = errors.New("sched: permanent failure")
	ErrWatchdog  = errors.New("sched: watchdog killed the job")
)

// Class is the retry-relevant classification of a job error.
type Class int

const (
	// Transient failures may succeed on retry.
	Transient Class = iota
	// Permanent failures are deterministic; retrying is pointless.
	Permanent
	// Watchdog failures mean the job was killed for running too long.
	Watchdog
)

// String names the class for logs and metrics.
func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Watchdog:
		return "watchdog"
	default:
		return "permanent"
	}
}

// sentinel returns the errors.Is sentinel for the class.
func (c Class) sentinel() error {
	switch c {
	case Transient:
		return ErrTransient
	case Watchdog:
		return ErrWatchdog
	default:
		return ErrPermanent
	}
}

// classified wraps a job error with its class. It matches the class
// sentinel via Is and keeps the cause reachable via Unwrap.
type classified struct {
	class Class
	err   error
}

func (e *classified) Error() string { return e.err.Error() }
func (e *classified) Unwrap() error { return e.err }
func (e *classified) Is(target error) bool {
	return target == e.class.sentinel()
}

// wrapClass attaches a class to err (idempotent on nil).
func wrapClass(c Class, err error) error {
	if err == nil {
		return nil
	}
	return &classified{class: c, err: err}
}

// ClassOf returns the class of a job error. Errors the scheduler already
// classified keep their class; raw errors are classified by their cause:
// watchdog kills and deadline expiry are Watchdog, injected transient
// launch failures are Transient, everything else — validation errors,
// panics, deterministic launch rejections — is Permanent. Unknown errors
// default to Permanent: retrying an unknown failure hides bugs.
func ClassOf(err error) Class {
	var c *classified
	if errors.As(err, &c) {
		return c.class
	}
	switch {
	case errors.Is(err, sim.ErrWatchdog), errors.Is(err, kir.ErrWatchdog),
		errors.Is(err, context.DeadlineExceeded):
		return Watchdog
	case errors.Is(err, fault.ErrTransientLaunch):
		return Transient
	default:
		return Permanent
	}
}

// ErrAbandoned is the errors.Is sentinel for executions cancelled because
// every caller went away (client disconnect, hedge-loser cancellation)
// before the job completed. Abandoned results are never cached.
var ErrAbandoned = errors.New("sched: abandoned by every caller")
