package analyzers

import "testing"

func TestErrlint(t *testing.T) {
	runGolden(t, Errlint, "a")
}

func TestErrlintStoreSentinels(t *testing.T) {
	runGolden(t, Errlint, "storeuser")
}

func TestErrlintHubSentinels(t *testing.T) {
	runGolden(t, Errlint, "hubuser")
}

func TestErrlintNonFiniteSentinel(t *testing.T) {
	runGolden(t, Errlint, "seriesuser")
}
