package sdtw

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"sdtw/internal/lower"
	"sdtw/internal/retrieve"
	"sdtw/internal/sketch"
	"sdtw/internal/store"
	"sdtw/internal/vfs"
)

// The crash-consistency property test: simulate a power cut at every
// filesystem operation of a fixed Append/Tombstone/Compact/Save script,
// recover, and assert the three durability promises the store makes —
// the store always reopens, every acknowledged write survives
// bit-exactly, and a store-backed search over the survivors answers
// identically to an in-RAM index built over the same surviving set.
//
// An append is acknowledged by the first successful Sync (or Compact)
// after it; a tombstone is acknowledged when Tombstone returns. Writes
// in flight at the cut may land or vanish — either is correct — but
// nothing else may change, and the store must describe whatever
// happened.

const (
	crashSeriesLen   = 32
	crashRadius      = 4
	crashSketchWidth = 8
	crashSeriesCount = 10
)

// crashSeriesValues generates the i'th deterministic series of the
// script.
func crashSeriesValues(i int) []float64 {
	rng := rand.New(rand.NewSource(int64(i)*7919 + 11))
	vals := make([]float64, crashSeriesLen)
	for j := range vals {
		vals[j] = rng.NormFloat64() * 3
	}
	return vals
}

func crashSeriesID(i int) string { return "r" + strconv.Itoa(i) }

// crashAcks tracks what the script has acknowledged so far. IDs move
// from appended (returned, volatile) to synced (covered by a successful
// Sync or Compact, must survive); tombstones are acknowledged on return
// and merely attempted once the call is issued.
type crashAcks struct {
	created bool
	// appendTried holds every Append issued (a call cut mid-write may
	// still land a complete record — per-record CRCs only guarantee
	// torn records never serve); appended holds the ones that returned.
	appendTried map[string]bool
	appended    map[string]bool
	synced      map[string]bool
	tombAcked   map[string]bool
	tombTried   map[string]bool
}

func newCrashAcks() *crashAcks {
	return &crashAcks{
		appendTried: make(map[string]bool),
		appended:    make(map[string]bool),
		synced:      make(map[string]bool),
		tombAcked:   make(map[string]bool),
		tombTried:   make(map[string]bool),
	}
}

// ackSync moves every returned append into the durable set.
func (a *crashAcks) ackSync() {
	for id := range a.appended {
		a.synced[id] = true
	}
}

// mustLive returns the IDs that have to be served after any crash:
// synced appends minus every tombstone that might have landed.
func (a *crashAcks) mustLive() map[string]bool {
	out := make(map[string]bool)
	for id := range a.synced {
		if !a.tombTried[id] {
			out[id] = true
		}
	}
	return out
}

// mayLive returns the IDs allowed to be served: every append issued
// minus acknowledged tombstones.
func (a *crashAcks) mayLive() map[string]bool {
	out := make(map[string]bool)
	for id := range a.appendTried {
		if !a.tombAcked[id] {
			out[id] = true
		}
	}
	return out
}

// crashBackendFingerprint returns the windowed fingerprint the script's
// store is written under.
func crashBackendFingerprint(t *testing.T) (string, int) {
	t.Helper()
	backend, _, err := retrieve.NewWindowedBackend(crashSeriesLen, crashRadius)
	if err != nil {
		t.Fatal(err)
	}
	return backend.Fingerprint(), backend.EnvelopeRadius(crashSeriesLen)
}

// crashAppend appends series i to the store, acknowledging nothing (the
// next Sync does).
func crashAppend(st *store.Store, i, envRadius int) error {
	vals := crashSeriesValues(i)
	env := lower.NewEnvelope(vals, envRadius)
	sk, err := sketch.FromEnvelope(env, crashSketchWidth)
	if err != nil {
		return err
	}
	return st.Append(store.Record{
		ID:       crashSeriesID(i),
		Seq:      uint64(i),
		N:        len(vals),
		First:    vals[0],
		Last:     vals[len(vals)-1],
		Sketch:   sk,
		Envelope: env,
		Values:   vals,
	})
}

// runCrashScript drives the scripted sequence against fs until it
// completes or the injected power cut fires. Acks are applied only for
// calls that returned success; a nil return with the crash already
// fired still acknowledges (the operation's durable commit completed —
// only best-effort cleanup was cut short).
func runCrashScript(t *testing.T, dir string, fs *vfs.FaultFS, acks *crashAcks) {
	t.Helper()
	fp, envRadius := crashBackendFingerprint(t)
	st, err := store.Create(dir, store.Config{
		Fingerprint:    fp,
		SketchWidth:    crashSketchWidth,
		SegmentRecords: 3,
		Meta: map[string]string{
			storeMetaKind:    storeKindWindowed,
			storeMetaLength:  strconv.Itoa(crashSeriesLen),
			storeMetaRadius:  strconv.Itoa(crashRadius),
			storeMetaNextSeq: strconv.Itoa(crashSeriesCount),
		},
		FS: fs,
	})
	if fs.Crashed() {
		return
	}
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	acks.created = true
	defer st.Close()

	step := func(name string, call func() error, ack func()) bool {
		err := call()
		if err == nil && ack != nil {
			ack()
		}
		if fs.Crashed() {
			return false
		}
		if err != nil {
			t.Fatalf("%s failed without a crash: %v", name, err)
		}
		return true
	}
	appendStep := func(i int) bool {
		acks.appendTried[crashSeriesID(i)] = true
		return step("append", func() error { return crashAppend(st, i, envRadius) },
			func() { acks.appended[crashSeriesID(i)] = true })
	}
	syncStep := func() bool {
		return step("sync", st.Sync, acks.ackSync)
	}
	tombStep := func(i int) bool {
		id := crashSeriesID(i)
		acks.tombTried[id] = true
		return step("tombstone", func() error { return st.Tombstone(id, uint64(i)) },
			func() { acks.tombAcked[id] = true })
	}

	// Append/Tombstone/Compact/Save in one script: two segment seals
	// (SegmentRecords 3), explicit sync barriers, removes before and
	// after a compaction, and unsynced appends left in flight at close.
	for i := 0; i < 6; i++ {
		if !appendStep(i) {
			return
		}
	}
	if !syncStep() {
		return
	}
	if !tombStep(1) {
		return
	}
	for i := 6; i < 8; i++ {
		if !appendStep(i) {
			return
		}
	}
	if !syncStep() {
		return
	}
	// Compact's manifest commit is its point of durability: on success
	// every live record has been rewritten and synced.
	if !step("compact", st.Compact, acks.ackSync) {
		return
	}
	if !appendStep(8) {
		return
	}
	if !tombStep(4) {
		return
	}
	if !appendStep(9) {
		return
	}
	if !syncStep() {
		return
	}
}

// verifyCrashOutcome reopens the store on the recovered filesystem and
// checks every durability promise against the acks.
func verifyCrashOutcome(t *testing.T, dir string, fs *vfs.FaultFS, acks *crashAcks) {
	t.Helper()
	st, err := store.OpenWith(dir, store.OpenOptions{FS: fs})
	if err != nil {
		if !acks.created {
			// The cut landed inside Create: the store may not exist yet,
			// but it must fail crisply, not serve garbage.
			if !errors.Is(err, store.ErrCorruptManifest) {
				t.Fatalf("open of a half-created store: %v, want ErrCorruptManifest", err)
			}
			return
		}
		t.Fatalf("store failed to reopen after crash: %v", err)
	}
	must, may := acks.mustLive(), acks.mayLive()
	live := make(map[string]bool)
	order := []string{}
	for _, rec := range st.Live() {
		live[rec.ID] = true
		order = append(order, rec.ID)
		if !may[rec.ID] {
			t.Fatalf("store serves %q which was never appended or was removed with acknowledgement", rec.ID)
		}
		i, err := strconv.Atoi(rec.ID[1:])
		if err != nil {
			t.Fatalf("unexpected ID %q", rec.ID)
		}
		vals, err := rec.LoadValues()
		if err != nil {
			t.Fatalf("loading %q after recovery: %v", rec.ID, err)
		}
		want := crashSeriesValues(i)
		for j := range want {
			if math.Float64bits(vals[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%q value %d = %v after recovery, want %v", rec.ID, j, vals[j], want[j])
			}
		}
	}
	for id := range must {
		if !live[id] {
			t.Fatalf("acknowledged write %q lost (live: %v)", id, order)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Search bit-identity: the store-backed index over the survivors
	// must answer exactly like an in-RAM windowed index over the same
	// set, same order.
	cold, err := OpenWindowedIndex(dir, withStoreFS(fs))
	if err != nil {
		if len(order) == 0 && errors.Is(err, ErrEmptyCollection) {
			return
		}
		t.Fatalf("opening recovered store as an index: %v", err)
	}
	defer cold.CloseStore()
	series := make([]Series, len(order))
	for i, id := range order {
		n, _ := strconv.Atoi(id[1:])
		series[i] = Series{ID: id, Values: crashSeriesValues(n)}
	}
	flat, err := NewWindowedIndex(series, crashRadius)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for q := 0; q < crashSeriesCount; q += 3 {
		query := Series{Values: crashSeriesValues(q)}
		want, _, err := flat.Search(ctx, query, WithK(3))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := cold.Search(ctx, query, WithK(3))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d hits from the store, %d in RAM", q, len(got), len(want))
		}
		for i := range want {
			if got[i].Pos != want[i].Pos ||
				math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
				t.Fatalf("query %d hit %d: store-backed %+v, in-RAM %+v", q, i, got[i], want[i])
			}
		}
	}
}

// TestCrashConsistency sweeps the power cut across every filesystem
// operation of the script. SDTW_CRASH_SEEDS widens the sweep to that
// many independent tear/survival seeds (CI's crash-consistency lane
// sets it; the default single seed keeps the test fast for tier-1).
func TestCrashConsistency(t *testing.T) {
	seeds := 1
	if s := os.Getenv("SDTW_CRASH_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("SDTW_CRASH_SEEDS=%q: want a positive integer", s)
		}
		seeds = n
	}
	for seed := 0; seed < seeds; seed++ {
		completed := false
		for n := 1; n < 1000; n++ {
			fs := vfs.NewFaultFS(int64(seed)*100_000 + int64(n))
			dir := filepath.Join("crash", "store")
			fs.CrashAt(n)
			acks := newCrashAcks()
			runCrashScript(t, dir, fs, acks)
			if !fs.Crashed() {
				// The script ran past the injection point: every op has
				// been crash-tested for this seed.
				completed = true
				break
			}
			fs.Recover()
			verifyCrashOutcome(t, dir, fs, acks)
		}
		if !completed {
			t.Fatalf("seed %d: script never completed within the sweep", seed)
		}
	}
}
