package dist

import (
	"errors"
	"fmt"
)

// RankError attributes a distributed failure to the rank and protocol phase
// it happened in, so a multi-rank failure is diagnosable from the error
// alone. Unwrap exposes the cause for errors.Is/As (a rank-local
// grid.ErrMemoryBudget stays recognizable on the in-process transport; over
// TCP the cause crosses the wire as text and is wrapped in a plain error).
type RankError struct {
	Rank  int    // rank index in [0, Ranks)
	Phase string // protocol phase: dial, scatter, estimate, gather, create, ingest, advance, query, snapshot, close, ping
	Err   error
}

func (e *RankError) Error() string {
	return fmt.Sprintf("dist: rank %d: %s: %v", e.Rank, e.Phase, e.Err)
}

func (e *RankError) Unwrap() error { return e.Err }

// rankErr wraps err with rank and phase attribution; nil stays nil.
func rankErr(rank int, phase string, err error) error {
	if err == nil {
		return nil
	}
	return &RankError{Rank: rank, Phase: phase, Err: err}
}

// ErrRankDown marks an operation refused because the target rank is not
// currently healthy (down, suspect, or awaiting this stream's re-seed).
// It is always wrapped in a RankError attributing the rank; test with
// errors.Is.
var ErrRankDown = errors.New("dist: rank down")

// Coverage reports how much of a sharded window contributed to an answer:
// Live of Total ranks. Full coverage (Live == Total) means the answer is
// exact; anything less is a principled partial estimate — the live ranks'
// shares of the events over the global live count, so every voxel is
// thinned by the missing shares.
type Coverage struct {
	Live  int `json:"live"`
	Total int `json:"total"`
}

// Fraction returns Live/Total (1 for an unsharded or empty topology).
func (c Coverage) Fraction() float64 {
	if c.Total == 0 {
		return 1
	}
	return float64(c.Live) / float64(c.Total)
}

// Degraded reports whether any rank was missing from the answer.
func (c Coverage) Degraded() bool { return c.Live < c.Total }

// answered is the coverage of a fan-out read: the ranks without an error.
func answered(errs []error) Coverage {
	cov := Coverage{Total: len(errs)}
	for _, err := range errs {
		if err == nil {
			cov.Live++
		}
	}
	return cov
}

// firstErr returns the first non-nil error of a per-rank slice.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// DegradedError reports a mutation that committed on the coordinator and
// every healthy rank but could not reach at least one failed rank. The
// coordinator's state (mutation log, live counts, journal) is authoritative
// and the failed rank will be rebuilt from it on reconnect, so callers
// that tolerate temporary partial coverage may treat this as success;
// Unwrap exposes the attributed RankError of the first failed rank.
type DegradedError struct {
	Coverage Coverage
	Err      error
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("dist: degraded (%d/%d ranks): %v", e.Coverage.Live, e.Coverage.Total, e.Err)
}

func (e *DegradedError) Unwrap() error { return e.Err }

// transportError marks a failure of the transport itself (send, receive,
// framing, cancellation) as opposed to a rank-side application error
// carried in a well-formed msgErr reply. Transport failures sever the
// connection and are retryable; rank-side errors are not.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// isTransportErr reports whether err (possibly wrapped in a RankError)
// originated in the transport layer.
func isTransportErr(err error) bool {
	var te *transportError
	return errors.As(err, &te)
}

// GatherPolicy selects how sharded analytics behave when a rank is down.
type GatherPolicy int

const (
	// GatherPartial (default) answers from the live ranks and reports the
	// reduced coverage alongside the answer.
	GatherPartial GatherPolicy = iota
	// GatherFailFast refuses degraded answers: any down rank fails the
	// query with its attributed RankError.
	GatherFailFast
)

func (p GatherPolicy) String() string {
	switch p {
	case GatherFailFast:
		return "failfast"
	default:
		return "partial"
	}
}

// ParseGatherPolicy parses "partial" or "failfast".
func ParseGatherPolicy(s string) (GatherPolicy, error) {
	switch s {
	case "", "partial":
		return GatherPartial, nil
	case "failfast":
		return GatherFailFast, nil
	default:
		return 0, fmt.Errorf("dist: unknown gather policy %q (want partial or failfast)", s)
	}
}
