// Package series mirrors the input-validation sentinels of
// sdtw/internal/series so the errlint golden tests can pin the %w
// wrapping discipline on the real import path.
package series

import "errors"

// ErrNonFinite reports a series or query holding a NaN or an infinity.
var ErrNonFinite = errors.New("non-finite value")
