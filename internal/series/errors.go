package series

import "errors"

// Sentinel errors shared by every layer that validates series inputs.
// They live in this package — the bottom of the dependency graph — so the
// dynamic-programming kernels (internal/dtw), the retrieval surface
// (internal/retrieve) and the public sdtw package can all wrap the same
// identities and callers can branch with errors.Is at any level.
var (
	// ErrEmptySeries reports a series, query or stream with no
	// observations.
	ErrEmptySeries = errors.New("empty series")
	// ErrLengthMismatch reports a series whose length violates a length
	// requirement: an equal-length one (a windowed backend's collection,
	// or a constraint band built for a different length), or the minimum
	// salient-feature extraction needs.
	ErrLengthMismatch = errors.New("series length mismatch")
	// ErrNonFinite reports a series or query holding a NaN, an infinity,
	// or a value beyond ±MaxMagnitude: DTW over such values yields
	// meaningless (or overflowing) distances and breaks the ordering the
	// k-NN heap relies on.
	ErrNonFinite = errors.New("non-finite value")
)
