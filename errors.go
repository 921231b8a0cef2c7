package dise

import (
	"errors"
	"fmt"

	"dise/internal/lang/types"
)

// ErrorKind classifies Analyzer failures so that service callers can route
// them without string matching: client errors (bad source, unknown
// procedure) versus operational outcomes (cancellation, exhausted budgets).
type ErrorKind int

const (
	// ParseError reports that a source text failed to parse.
	ParseError ErrorKind = iota + 1
	// TypeError reports that a source text parsed but failed the type
	// check, or that the requested procedure is not analyzable as given
	// (e.g. it contains calls that must be expanded with inlining first).
	TypeError
	// UnknownProc reports that the requested procedure does not exist in the
	// program.
	UnknownProc
	// Cancelled reports that the request's context was cancelled (or its
	// deadline expired) mid-analysis; the underlying error is ctx.Err().
	Cancelled
	// BudgetExhausted reports that the exploration hit the state budget
	// configured with WithMaxStates before completing.
	BudgetExhausted
	// InvalidConfig reports that the Analyzer was constructed with an
	// unusable option (e.g. an unknown WithSolverBackend name); every
	// request fails with it until the configuration is corrected.
	InvalidConfig
)

// Code returns the kind's stable machine-readable name (snake_case), used
// in the JSON error envelopes of cmd/dise -json and the analysis service.
func (k ErrorKind) Code() string {
	switch k {
	case ParseError:
		return "parse_error"
	case TypeError:
		return "type_error"
	case UnknownProc:
		return "unknown_proc"
	case Cancelled:
		return "cancelled"
	case BudgetExhausted:
		return "budget_exhausted"
	case InvalidConfig:
		return "invalid_config"
	}
	return fmt.Sprintf("error_kind_%d", int(k))
}

// String returns the kind's name.
func (k ErrorKind) String() string {
	switch k {
	case ParseError:
		return "parse error"
	case TypeError:
		return "type error"
	case UnknownProc:
		return "unknown procedure"
	case Cancelled:
		return "cancelled"
	case BudgetExhausted:
		return "budget exhausted"
	case InvalidConfig:
		return "invalid configuration"
	}
	return fmt.Sprintf("ErrorKind(%d)", int(k))
}

// Error is the structured error of the Analyzer API.
type Error struct {
	// Kind classifies the failure.
	Kind ErrorKind
	// Stage names the input or phase the failure belongs to, e.g.
	// "base version" or "modified version". May be empty.
	Stage string
	// Err is the underlying cause: the parser or type-checker error,
	// ctx.Err() for Cancelled, nil for BudgetExhausted.
	Err error
}

// Error renders "base version: parse error: ...".
func (e *Error) Error() string {
	msg := e.Kind.String()
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	if e.Stage != "" {
		return e.Stage + ": " + msg
	}
	return msg
}

// Unwrap exposes the cause, so errors.Is(err, context.Canceled) works on
// Cancelled errors.
func (e *Error) Unwrap() error { return e.Err }

// Is makes errors.Is(err, &dise.Error{Kind: k}) match on kind alone.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Kind == e.Kind && (t.Stage == "" || t.Stage == e.Stage)
}

// Kind-matching sentinels: errors.Is(err, dise.ErrCancelled) reports whether
// err is (or wraps) a *dise.Error of that kind, regardless of stage or
// cause. They exist so callers routing errors — e.g. a service handler
// mapping kinds to HTTP status codes — can use the standard errors.Is
// contract instead of type-switching on *Error.
var (
	ErrParse           error = &Error{Kind: ParseError}
	ErrType            error = &Error{Kind: TypeError}
	ErrUnknownProc     error = &Error{Kind: UnknownProc}
	ErrCancelled       error = &Error{Kind: Cancelled}
	ErrBudgetExhausted error = &Error{Kind: BudgetExhausted}
	ErrInvalidConfig   error = &Error{Kind: InvalidConfig}
)

// errMergeSession is the cause of the InvalidConfig error NewSession returns
// for an Analyzer configured with WithStateMerging: session memo tries
// record solver verdicts keyed by per-path conjunctions, which merging
// replaces with factored disjunctions.
var errMergeSession = errors.New("state merging (WithStateMerging) is incompatible with version-chain sessions")

// KindOf extracts the ErrorKind of err, unwrapping as errors.As does. It
// returns 0 for nil and for errors that are not classified *dise.Errors.
func KindOf(err error) ErrorKind {
	var e *Error
	if errors.As(err, &e) {
		return e.Kind
	}
	return 0
}

// engineErr classifies an engine construction failure: symbolic inputs
// aliasing one symbol are a type error of the explored program, anything
// else an unusable engine configuration.
func engineErr(err error) *Error {
	if errors.Is(err, types.ErrAliasedInputs) {
		return &Error{Kind: TypeError, Err: err}
	}
	return errKind(InvalidConfig, "", err)
}

// errKind builds an *Error, leaving already-classified errors intact (the
// innermost classification wins, but an empty stage is filled in).
func errKind(kind ErrorKind, stage string, err error) *Error {
	if inner, ok := err.(*Error); ok {
		if inner.Stage == "" {
			inner.Stage = stage
		}
		return inner
	}
	return &Error{Kind: kind, Stage: stage, Err: err}
}
