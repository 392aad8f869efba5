package retrieve

import (
	"errors"

	"sdtw/internal/series"
)

// Sentinel errors of the retrieval surface. The public sdtw package
// re-exports them; every validation failure across the query surface
// wraps one of these so callers can branch with errors.Is instead of
// matching message strings. ErrEmptySeries, ErrLengthMismatch and
// ErrNonFinite are the shared identities from internal/series, so the
// dynamic-programming kernels report the very same sentinels.
var (
	// ErrEmptyCollection reports an attempt to build an index (or run a
	// batch) over zero series or zero queries.
	ErrEmptyCollection = errors.New("empty collection")
	// ErrEmptySeries reports a series or query with no observations.
	ErrEmptySeries = series.ErrEmptySeries
	// ErrBadK reports a non-positive neighbour count.
	ErrBadK = errors.New("k must be >= 1")
	// ErrLengthMismatch reports a series whose length violates a
	// backend's equal-length requirement.
	ErrLengthMismatch = series.ErrLengthMismatch
	// ErrNonFinite reports a series or query holding a NaN, an infinity,
	// or a value beyond ±1e150 (where squared point costs overflow).
	ErrNonFinite = series.ErrNonFinite
	// ErrConfigMismatch reports an index snapshot whose configuration
	// fingerprint does not match the options it is being loaded under.
	ErrConfigMismatch = errors.New("index config mismatch")
	// ErrDuplicateID reports two collection series sharing one non-empty
	// ID (IDs key the feature cache and Remove).
	ErrDuplicateID = errors.New("duplicate series ID")
	// ErrUnknownID reports a Remove of an ID not in the collection.
	ErrUnknownID = errors.New("unknown series ID")
)
