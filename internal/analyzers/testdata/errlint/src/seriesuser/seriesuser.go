// Package seriesuser exercises the errlint discipline against the
// non-finite input sentinel: the search path wraps it with %w (so
// errors.Is(err, sdtw.ErrNonFinite) and the HTTP 400 mapping keep
// matching through every layer) and matches it with errors.Is.
package seriesuser

import (
	"errors"
	"fmt"

	"sdtw/internal/series"
)

// RejectQuery wraps the sentinel with %w: sanctioned.
func RejectQuery(i int) error {
	return fmt.Errorf("query: NaN at index %d: %w", i, series.ErrNonFinite)
}

// BadRejectQuery severs the chain with %v, so serve answers 500
// instead of 400.
func BadRejectQuery(i int) error {
	return fmt.Errorf("query: NaN at index %d: %v", i, series.ErrNonFinite) // want `%w`
}

// BadIsNonFinite matches the sentinel by value, missing every wrapped
// rejection.
func BadIsNonFinite(err error) bool {
	return err == series.ErrNonFinite // want `errors.Is`
}

// IsNonFinite matches through the chain: sanctioned.
func IsNonFinite(err error) bool {
	return errors.Is(err, series.ErrNonFinite)
}
