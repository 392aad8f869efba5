//go:build race

package retrieve

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of what it is given on purpose, so pool reuse cannot be measured.
const raceEnabled = true
