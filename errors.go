package securadio

import (
	"errors"
	"fmt"

	"securadio/internal/core"
	"securadio/internal/groupkey"
	"securadio/internal/msgopt"
	"securadio/internal/radio"
	"securadio/internal/secure"
)

// Sentinel errors. Every validation, cancellation, quorum and setup
// failure returned by a Runner method matches exactly one of these under
// errors.Is, and the concrete values carry structured fields for
// programmatic inspection. Protocol-level whp failures that fit none of
// the four classes (e.g. replica divergence at an unreasonable kappa)
// pass through with their internal detail intact.
var (
	// ErrBadParams reports an invalid Network, RunnerOption or workload
	// configuration (model-bound violations included). The concrete value
	// is a *ParamError wrapping the layer-specific validation error.
	ErrBadParams = errors.New("securadio: invalid parameters")

	// ErrCanceled reports that a run's context was canceled (or its
	// deadline exceeded) before the protocol completed. The concrete value
	// is a *CanceledError that also wraps the context's own error, so
	// errors.Is(err, context.Canceled) and
	// errors.Is(err, context.DeadlineExceeded) keep working.
	ErrCanceled = errors.New("securadio: run canceled")

	// ErrNoQuorum is returned by Runner.GroupKey when no leader key
	// gathered a reporter quorum (only possible outside the model's
	// parameter bounds or in the negligible-probability failure branch).
	// The concrete value is a *QuorumError.
	ErrNoQuorum = errors.New("securadio: group key establishment reached no quorum")

	// ErrSetupFailed is returned by Runner.SecureGroup when group-key
	// setup left fewer than n-t nodes holding the key; the concrete value
	// is a *SetupError. Individual nodes failing setup
	// locally are tolerated as keyless (counted in
	// SecureGroupReport.SetupErrors), matching the fleet campaign path.
	ErrSetupFailed = errors.New("securadio: secure group setup failed")
)

// ParamError is the structured form of ErrBadParams: which Runner
// operation rejected the configuration, and the layer-specific validation
// error explaining why.
type ParamError struct {
	// Op names the operation that rejected the parameters ("exchange",
	// "group key", ...).
	Op string

	// Err is the underlying validation error from the protocol layer.
	Err error
}

func (e *ParamError) Error() string   { return fmt.Sprintf("securadio: %s: %v", e.Op, e.Err) }
func (e *ParamError) Unwrap() error   { return e.Err }
func (e *ParamError) Is(t error) bool { return t == ErrBadParams }

// CanceledError is the structured form of ErrCanceled: which Runner
// operation was interrupted and the context error that interrupted it.
type CanceledError struct {
	// Op names the interrupted operation.
	Op string

	// Err is the underlying error chain, which includes the context's own
	// error (context.Canceled or context.DeadlineExceeded).
	Err error
}

func (e *CanceledError) Error() string   { return fmt.Sprintf("securadio: %s canceled: %v", e.Op, e.Err) }
func (e *CanceledError) Unwrap() error   { return e.Err }
func (e *CanceledError) Is(t error) bool { return t == ErrCanceled }

// QuorumError is the structured form of ErrNoQuorum.
type QuorumError struct {
	// N and T are the network shape of the failed establishment.
	N, T int
}

func (e *QuorumError) Error() string {
	return fmt.Sprintf("%v (n=%d t=%d)", ErrNoQuorum, e.N, e.T)
}
func (e *QuorumError) Is(t error) bool { return t == ErrNoQuorum }

// SetupError is the structured form of ErrSetupFailed.
type SetupError struct {
	// Holders is how many nodes obtained the group key; the model requires
	// at least N - T.
	Holders int

	// N and T are the network shape of the failed setup.
	N, T int
}

func (e *SetupError) Error() string {
	return fmt.Sprintf("%v: only %d of %d nodes hold the key", ErrSetupFailed, e.Holders, e.N)
}
func (e *SetupError) Is(t error) bool { return t == ErrSetupFailed }

// wrapErr folds an internal-layer error into the public hierarchy: radio
// cancellation becomes *CanceledError, layer validation failures become
// *ParamError, and anything else passes through unchanged (protocol-level
// failures keep their internal detail).
func wrapErr(op string, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, radio.ErrCanceled) {
		return &CanceledError{Op: op, Err: err}
	}
	for _, bad := range []error{
		core.ErrBadParams, msgopt.ErrBadParams, groupkey.ErrBadParams,
		secure.ErrBadParams, radio.ErrBadConfig,
	} {
		if errors.Is(err, bad) {
			return &ParamError{Op: op, Err: err}
		}
	}
	return err
}
