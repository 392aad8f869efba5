package sdtw

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"sdtw/internal/lower"
	"sdtw/internal/retrieve"
	"sdtw/internal/series"
	"sdtw/internal/shard"
	"sdtw/internal/sketch"
	"sdtw/internal/store"
	"sdtw/internal/vfs"
)

// This file is the segment-store face of Index and ShardedIndex, the
// package's one on-disk format: SaveStore exports a warm index into a
// store, the Open* functions serve straight from one with only the hot
// sections — IDs, endpoints, sketches, envelopes — resident, and
// Add/Remove on an opened index write through to the store, so the
// collection scales past what the raw values would occupy in RAM. A flat
// index is the one-store case of the same code: its store sits at the
// root, while a sharded index keeps one store per shard under
// shard-0000, shard-0001, ….

// Manifest metadata keys the index layer stores alongside the segment
// format's own fields.
const (
	storeMetaKind    = "kind"
	storeMetaLength  = "length"
	storeMetaRadius  = "radius"
	storeMetaShards  = "shards"
	storeMetaShard   = "shard"
	storeMetaNextSeq = "next_seq"
)

// Index kinds recorded under storeMetaKind.
const (
	storeKindEngine   = "engine"
	storeKindWindowed = "windowed"
)

// shardDirName names the per-shard store directory under a sharded
// store root.
func shardDirName(i int) string { return fmt.Sprintf("shard-%04d", i) }

// StoreStats summarises a store-backed index's segment store(s):
// sharded indexes aggregate across their per-shard stores.
type StoreStats struct {
	// Segments counts sealed segments plus the active one(s).
	Segments int
	// LiveRecords and Tombstones partition the stored records.
	LiveRecords, Tombstones int
	// SketchWidth is the stage-0 sketch coefficient count every record
	// carries.
	SketchWidth int
	// Health reports what opening the store(s) recovered, swept or
	// quarantined — aggregated across shards for a sharded index.
	// Health.Degraded() means quarantined records are unavailable.
	Health StoreHealth
	// ShardHealth breaks Health down per shard for a sharded index
	// (nil for an unsharded one).
	ShardHealth []StoreHealth
}

// StoreHealth reports the damage a segment store is carrying: what its
// open recovered, swept, or sidelined. The zero value is a fully intact
// store; Degraded() reports whether quarantined segments are holding
// records back from serving.
type StoreHealth = store.Health

// OpenOption adjusts how the Open* entry points open their segment
// store(s).
type OpenOption struct{ apply func(*store.OpenOptions) }

// AllowQuarantine opts the open into degraded serving: a corrupt sealed
// segment is sidelined (renamed to seg-*.quarantine and recorded in the
// manifest) and the survivors are served, instead of the whole open
// failing with ErrCorruptSegment. The quarantine is sticky — once a
// store holds quarantined segments, reopening it requires this option
// until the operator resolves them (see `sdtw fsck`). Quarantined and
// recovered counts surface through StoreStats.Health. An unsharded
// store whose every record is quarantined still fails the open
// (ErrEmptyCollection); a sharded root serves the surviving shards.
func AllowQuarantine() OpenOption {
	return OpenOption{func(o *store.OpenOptions) { o.AllowQuarantine = true }}
}

// withStoreFS points the open at an alternate filesystem; crash tests
// inject a vfs.FaultFS here.
func withStoreFS(fsys vfs.FS) OpenOption {
	return OpenOption{func(o *store.OpenOptions) { o.FS = fsys }}
}

// storeSet is the segment-store state Index and ShardedIndex share: one
// store per shard (a flat index holds exactly one, at the root), the
// backend each was written under, and the mutex that serialises
// write-through mutations. A nil *storeSet is an in-RAM index, on which
// every store operation reports ErrNotStoreBacked.
type storeSet struct {
	mu       sync.Mutex
	shards   []*store.Store
	backends []retrieve.Backend
	// sharded marks the shard-NNNN layout: errors name the shard, and
	// StoreStats breaks health down per shard.
	sharded bool
}

// storeSpec is what an export writes into every manifest of a store set.
type storeSpec struct {
	kind        string
	backend     retrieve.Backend // fingerprint and cascade of the exported index
	sketchWidth int              // <= 0 selects DefaultSketchWidth
	segRecords  int
	radius      int    // windowed radius
	sharded     bool   // shard-NNNN layout under the root
	nextSeq     uint64 // the index's next insertion sequence
}

// storePart is one store's worth of an export: the series, their
// envelopes, and their insertion sequences (nil means positions).
type storePart struct {
	data []Series
	envs []lower.Envelope
	seqs []uint64
}

// saveStore exports parts into a store set rooted at dir (created if
// missing; refused with ErrStoreExists if it already holds a store): the
// single part of a flat index at dir itself, the parts of a sharded one
// under dir/shard-NNNN. A failed export removes dir if it created it.
func saveStore(dir string, spec storeSpec, parts []storePart) (err error) {
	if !spec.backend.Cascade() {
		return fmt.Errorf("sdtw: SaveStore: a custom PointDistance has no admissible envelopes or sketches to persist: %w", ErrConfigMismatch)
	}
	w := spec.sketchWidth
	if w <= 0 {
		w = DefaultSketchWidth
	}
	length := 0
	for _, p := range parts {
		if len(p.data) > 0 {
			length = p.data[0].Len()
			break
		}
	}
	_, statErr := os.Stat(dir)
	created := os.IsNotExist(statErr)
	stores := make([]*store.Store, 0, len(parts))
	defer func() {
		for _, st := range stores {
			if cerr := st.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		if err != nil {
			if created {
				os.RemoveAll(dir)
			}
			err = fmt.Errorf("sdtw: SaveStore: %w", err)
		}
	}()
	for i, p := range parts {
		meta := map[string]string{
			storeMetaKind:    spec.kind,
			storeMetaNextSeq: strconv.FormatUint(spec.nextSeq, 10),
		}
		if spec.kind == storeKindWindowed {
			meta[storeMetaLength] = strconv.Itoa(length)
			meta[storeMetaRadius] = strconv.Itoa(spec.radius)
		}
		path := dir
		if spec.sharded {
			meta[storeMetaShards] = strconv.Itoa(len(parts))
			meta[storeMetaShard] = strconv.Itoa(i)
			path = filepath.Join(dir, shardDirName(i))
		}
		st, err := store.Create(path, store.Config{
			Fingerprint:    spec.backend.Fingerprint(),
			SketchWidth:    w,
			SegmentRecords: spec.segRecords,
			Meta:           meta,
		})
		if err != nil {
			return err
		}
		stores = append(stores, st)
		for j, s := range p.data {
			if s.ID == "" {
				return fmt.Errorf("series %d: %w", j, ErrNoID)
			}
			seq := uint64(j)
			if p.seqs != nil {
				seq = p.seqs[j]
			}
			rec, err := storeRecord(s, seq, p.envs[j], w)
			if err != nil {
				return err
			}
			if err := st.Append(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// storeRecord pairs s with its envelope and the width-w sketch derived
// from it: everything the cascade's pre-DP stages read hot, plus the raw
// values kept cold.
func storeRecord(s Series, seq uint64, env lower.Envelope, w int) (store.Record, error) {
	sk, err := sketch.FromEnvelope(env, w)
	if err != nil {
		return store.Record{}, fmt.Errorf("series %q: %w", s.ID, err)
	}
	return store.Record{
		ID:       s.ID,
		Label:    s.Label,
		Seq:      seq,
		N:        len(s.Values),
		First:    s.Values[0],
		Last:     s.Values[len(s.Values)-1],
		Sketch:   sk,
		Envelope: env,
		Values:   s.Values,
	}, nil
}

// rebuilt is the index configuration an Open function reconstructs
// around a store set.
type rebuilt struct {
	backends []retrieve.Backend // one per store
	engines  []*Engine          // one per store; nil for the windowed backend
	radius   int                // effective windowed radius; -1 for the engine backend
	workers  int
	abandon  bool
	nextSeq  uint64
}

// backendFactory checks that a store set's shard-0 store holds the kind
// of index an Open function serves, under a configuration it can
// rebuild, and rebuilds one backend for each of the set's n stores.
type backendFactory func(st *store.Store, n int) (rebuilt, error)

// wantKind refuses a store holding another kind of index.
func wantKind(st *store.Store, kind string) error {
	if got := st.Meta()[storeMetaKind]; got != kind {
		return fmt.Errorf("sdtw: store holds a %q index, want %q: %w", got, kind, ErrConfigMismatch)
	}
	return nil
}

// engineBackends rebuilds sDTW engine backends under opts, which must
// describe the engine configuration the store was written under.
func engineBackends(opts Options) backendFactory {
	return func(st *store.Store, n int) (rebuilt, error) {
		if err := wantKind(st, storeKindEngine); err != nil {
			return rebuilt{}, err
		}
		fp := engineFingerprint(opts)
		if fp != st.Fingerprint() {
			return rebuilt{}, fmt.Errorf("sdtw: store written under %q, opening under %q: %w",
				st.Fingerprint(), fp, ErrConfigMismatch)
		}
		rb := rebuilt{
			backends: make([]retrieve.Backend, n),
			engines:  make([]*Engine, n),
			radius:   -1,
			workers:  indexWorkers(opts.Workers),
			abandon:  !opts.DisableAbandon,
		}
		for i := range rb.backends {
			rb.engines[i] = NewEngine(opts)
			rb.backends[i] = retrieve.NewEngineBackend(rb.engines[i].inner, fp, opts.PointDistance != nil)
		}
		return rb, nil
	}
}

// windowedBackends rebuilds windowed backends from the length and radius
// the store's manifest carries; the rebuilt fingerprint must reproduce
// the stored one.
func windowedBackends(st *store.Store, n int) (rebuilt, error) {
	if err := wantKind(st, storeKindWindowed); err != nil {
		return rebuilt{}, err
	}
	length, err := strconv.Atoi(st.Meta()[storeMetaLength])
	if err != nil || length <= 0 {
		return rebuilt{}, fmt.Errorf("sdtw: store has windowed length %q: %w", st.Meta()[storeMetaLength], ErrCorruptManifest)
	}
	radius, err := strconv.Atoi(st.Meta()[storeMetaRadius])
	if err != nil {
		return rebuilt{}, fmt.Errorf("sdtw: store has windowed radius %q: %w", st.Meta()[storeMetaRadius], ErrCorruptManifest)
	}
	rb := rebuilt{backends: make([]retrieve.Backend, n), workers: indexWorkers(0), abandon: true}
	for i := range rb.backends {
		b, eff, err := retrieve.NewWindowedBackend(length, radius)
		if err != nil {
			return rebuilt{}, fmt.Errorf("sdtw: %w", err)
		}
		if fp := b.Fingerprint(); fp != st.Fingerprint() {
			return rebuilt{}, fmt.Errorf("sdtw: store written under %q, rebuilt backend is %q: %w",
				st.Fingerprint(), fp, ErrConfigMismatch)
		}
		rb.backends[i], rb.radius = b, eff
	}
	return rb, nil
}

// openStores opens the store set under dir — the root store of a flat
// index, or every shard-NNNN store of a sharded one — and rebuilds its
// backends through rebuild. The open is atomic: any missing, corrupt or
// inconsistent store closes the ones already opened and fails the whole
// open, so a cluster never comes up over a subset of its shards. Under
// AllowQuarantine a store with corrupt sealed segments opens degraded
// instead; structural failures (a missing shard, a corrupt manifest,
// mixed configurations) still fail — quarantine bounds the damage, it
// never papers over a store that cannot describe itself.
func openStores(dir string, sharded bool, rebuild backendFactory, open []OpenOption) (*storeSet, rebuilt, error) {
	var so store.OpenOptions
	for _, op := range open {
		op.apply(&so)
	}
	ss := &storeSet{sharded: sharded}
	fail := func(err error) (*storeSet, rebuilt, error) {
		ss.close()
		return nil, rebuilt{}, err
	}
	n := 1 // a sharded root's count comes from shard 0's manifest
	for i := 0; i < n; i++ {
		path := dir
		if sharded {
			path = filepath.Join(dir, shardDirName(i))
		}
		st, err := store.OpenWith(path, so)
		if err != nil {
			return fail(ss.wrap("", i, err))
		}
		ss.shards = append(ss.shards, st)
		if sharded && i == 0 {
			if n, err = strconv.Atoi(st.Meta()[storeMetaShards]); err != nil || n < 1 {
				return fail(fmt.Errorf("sdtw: shard 0 has shard count %q: %w", st.Meta()[storeMetaShards], ErrCorruptManifest))
			}
		}
	}
	st0 := ss.shards[0]
	var nextSeq uint64
	for i, st := range ss.shards {
		// Every store must agree on the index configuration: a mixed
		// directory (shards written by different indexes, or a shard
		// swapped in from elsewhere) must refuse to open rather than serve
		// merged results two configurations disagree on.
		if st.Fingerprint() != st0.Fingerprint() {
			return fail(fmt.Errorf("sdtw: shard %d written under %q, shard 0 under %q: %w",
				i, st.Fingerprint(), st0.Fingerprint(), ErrConfigMismatch))
		}
		if got, want := st.Meta()[storeMetaKind], st0.Meta()[storeMetaKind]; got != want {
			return fail(fmt.Errorf("sdtw: shard %d holds a %q index, shard 0 a %q: %w", i, got, want, ErrConfigMismatch))
		}
		if st.SketchWidth() != st0.SketchWidth() {
			return fail(fmt.Errorf("sdtw: shard %d has sketch width %d, shard 0 %d: %w",
				i, st.SketchWidth(), st0.SketchWidth(), ErrConfigMismatch))
		}
		if sharded {
			if got, want := st.Meta()[storeMetaShards], st0.Meta()[storeMetaShards]; got != want {
				return fail(fmt.Errorf("sdtw: shard %d expects %q shards, shard 0 %q: %w", i, got, want, ErrConfigMismatch))
			}
			if got := st.Meta()[storeMetaShard]; got != strconv.Itoa(i) {
				return fail(fmt.Errorf("sdtw: directory %s holds shard %q: %w", shardDirName(i), got, ErrConfigMismatch))
			}
		}
		// The larger of the manifest's recorded counter and one past the
		// highest stored sequence (appends after the manifest was written).
		nextSeq = max(nextSeq, st.NextSeq())
		if v, err := strconv.ParseUint(st.Meta()[storeMetaNextSeq], 10, 64); err == nil {
			nextSeq = max(nextSeq, v)
		}
	}
	rb, err := rebuild(st0, len(ss.shards))
	if err != nil {
		return fail(err)
	}
	rb.nextSeq = nextSeq
	ss.backends = rb.backends
	return ss, rb, nil
}

// coldRecords lowers live store records onto the cascade's cold-series
// form, alongside their insertion sequences.
func coldRecords(live []*store.Record) ([]retrieve.ColdSeries, []uint64) {
	cold := make([]retrieve.ColdSeries, len(live))
	seqs := make([]uint64, len(live))
	for i, rec := range live {
		cold[i] = retrieve.ColdSeries{
			ID:       rec.ID,
			Label:    rec.Label,
			N:        rec.N,
			First:    rec.First,
			Last:     rec.Last,
			Envelope: rec.Envelope,
			Sketch:   rec.Sketch,
			Load:     rec.LoadValues,
		}
		seqs[i] = rec.Seq
	}
	return cold, seqs
}

// openIndex opens a flat store set and serves it as a store-backed Index.
func openIndex(dir string, rebuild backendFactory, open []OpenOption) (*Index, error) {
	ss, rb, err := openStores(dir, false, rebuild, open)
	if err != nil {
		return nil, err
	}
	st := ss.shards[0]
	cold, seqs := coldRecords(st.Live())
	core, err := retrieve.RestoreCold(rb.backends[0], cold, st.SketchWidth(), rb.workers, rb.abandon)
	if err != nil {
		ss.close()
		return nil, fmt.Errorf("sdtw: %w", err)
	}
	ix := &Index{core: core, radius: rb.radius, stores: ss, seqs: make(map[string]uint64, len(cold)), nextSeq: rb.nextSeq}
	for i, cs := range cold {
		ix.seqs[cs.ID] = seqs[i]
	}
	if rb.engines != nil {
		ix.engine = rb.engines[0]
	}
	return ix, nil
}

// openShardedIndex opens a sharded store set and serves it as a
// store-backed ShardedIndex, restoring every shard's insertion sequences
// so the cross-shard tie-break order survives the round trip exactly.
func openShardedIndex(dir string, rebuild backendFactory, open []OpenOption) (*ShardedIndex, error) {
	ss, rb, err := openStores(dir, true, rebuild, open)
	if err != nil {
		return nil, err
	}
	parts := make([][]retrieve.ColdSeries, len(ss.shards))
	seqs := make([][]uint64, len(ss.shards))
	for i, st := range ss.shards {
		parts[i], seqs[i] = coldRecords(st.Live())
	}
	cluster, err := shard.RestoreCold(shard.Config{
		Shards:      len(ss.shards),
		NewBackend:  func(i int) (retrieve.Backend, error) { return rb.backends[i], nil },
		Workers:     rb.workers,
		Abandon:     rb.abandon,
		SketchWidth: ss.shards[0].SketchWidth(),
	}, parts, seqs, rb.nextSeq)
	if err != nil {
		ss.close()
		return nil, fmt.Errorf("sdtw: %w", err)
	}
	return &ShardedIndex{cluster: cluster, engines: rb.engines, radius: rb.radius, shards: len(ss.shards), stores: ss}, nil
}

// wrap prefixes err with the operation and, in a sharded set, the shard.
func (ss *storeSet) wrap(op string, i int, err error) error {
	if op != "" {
		op += ": "
	}
	if ss.sharded {
		return fmt.Errorf("sdtw: %sshard %d: %w", op, i, err)
	}
	return fmt.Errorf("sdtw: %s%w", op, err)
}

// add writes s through to store sh. The envelope — computed exactly as
// the in-RAM core computes it: same values, same backend radius — and
// the sketch are built before the lock. Under it, admit puts s in RAM
// and returns its insertion sequence, and if the append fails undo
// takes it back out, so RAM and disk agree.
func (ss *storeSet) add(sh int, s Series, admit func() (uint64, error), undo func()) error {
	if s.ID == "" {
		return fmt.Errorf("sdtw: Add: a store-backed index needs non-empty series IDs: %w", ErrNoID)
	}
	if len(s.Values) == 0 {
		return fmt.Errorf("sdtw: Add: series %q: %w", s.ID, ErrEmptySeries)
	}
	if err := series.CheckFinite(s.Values); err != nil {
		return fmt.Errorf("sdtw: Add: series %q: %w", s.ID, err)
	}
	st := ss.shards[sh]
	env := lower.NewEnvelope(s.Values, ss.backends[sh].EnvelopeRadius(len(s.Values)))
	rec, err := storeRecord(s, 0, env, st.SketchWidth())
	if err != nil {
		return fmt.Errorf("sdtw: Add: %w", err)
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if rec.Seq, err = admit(); err != nil {
		return fmt.Errorf("sdtw: Add: %w", err)
	}
	if err := st.Append(rec); err != nil {
		undo()
		return fmt.Errorf("sdtw: Add: %w", err)
	}
	return nil
}

// remove drops id from RAM through drop, which returns the insertion
// sequence the series held, and tombstones it in store sh.
func (ss *storeSet) remove(sh int, id string, drop func() (uint64, error)) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	seq, err := drop()
	if err != nil {
		return fmt.Errorf("sdtw: Remove: %w", err)
	}
	if err := ss.shards[sh].Tombstone(id, seq); err != nil {
		return fmt.Errorf("sdtw: Remove: %w", err)
	}
	return nil
}

// each runs fn on every store under the lock, stopping at the first
// error.
func (ss *storeSet) each(op string, fn func(*store.Store) error) error {
	if ss == nil {
		return fmt.Errorf("sdtw: %s: %w", op, ErrNotStoreBacked)
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for i, st := range ss.shards {
		if err := fn(st); err != nil {
			return ss.wrap(op, i, err)
		}
	}
	return nil
}

// stats aggregates the stores' counters and health.
func (ss *storeSet) stats() (StoreStats, error) {
	if ss == nil {
		return StoreStats{}, fmt.Errorf("sdtw: StoreStats: %w", ErrNotStoreBacked)
	}
	var out StoreStats
	if ss.sharded {
		out.ShardHealth = make([]StoreHealth, len(ss.shards))
	}
	for i, st := range ss.shards {
		s := st.Stats()
		out.Segments += s.Segments
		out.LiveRecords += s.LiveRecords
		out.Tombstones += s.Tombstones
		out.SketchWidth = s.SketchWidth
		h := st.Health()
		if ss.sharded {
			out.ShardHealth[i] = h
		}
		out.Health.Quarantined += h.Quarantined
		out.Health.QuarantinedRecords += h.QuarantinedRecords
		out.Health.RecoveredRecords += h.RecoveredRecords
		out.Health.TruncatedBytes += h.TruncatedBytes
		out.Health.OrphansSwept += h.OrphansSwept
	}
	return out, nil
}

// close closes every store, reporting the first failure.
func (ss *storeSet) close() error {
	if ss == nil {
		return fmt.Errorf("sdtw: CloseStore: %w", ErrNotStoreBacked)
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var first error
	for i, st := range ss.shards {
		if err := st.Close(); err != nil && first == nil {
			first = ss.wrap("CloseStore", i, err)
		}
	}
	return first
}

// SaveStore exports the index into a segment store rooted at dir
// (created if missing; refused with ErrStoreExists if dir already holds
// a store). Every series needs a non-empty ID — the store keys removals
// on (ID, insertion sequence). The store persists everything the
// cascade's pre-DP stages need hot (sketches, envelopes, endpoints) and
// the raw values cold, so OpenIndex serves from it without loading
// values into RAM. Export during a quiet period for a point-in-time
// snapshot.
func (ix *Index) SaveStore(dir string) error {
	if ix.core.Cold() {
		return fmt.Errorf("sdtw: SaveStore: the index already serves from a segment store: %w", ErrStoreBacked)
	}
	data, envs := ix.core.Snapshot()
	return saveStore(dir, storeSpec{
		kind:        ix.kind(),
		backend:     ix.core.Backend(),
		sketchWidth: ix.core.SketchWidth(),
		segRecords:  ix.segRecords,
		radius:      ix.radius,
		nextSeq:     uint64(len(data)),
	}, []storePart{{data: data, envs: envs}})
}

// SaveStore exports the sharded index into a store root at dir: one
// segment store per shard under shard-0000, shard-0001, …, each
// carrying the shard count, its own shard number, and the cluster's
// next insertion sequence, so OpenShardedIndex rebuilds the cluster —
// including the cross-shard tie-break order — exactly.
func (si *ShardedIndex) SaveStore(dir string) error {
	if si.cluster.Cold() {
		return fmt.Errorf("sdtw: SaveStore: the index already serves from segment stores: %w", ErrStoreBacked)
	}
	parts := make([]storePart, si.shards)
	for i := range parts {
		parts[i].data, parts[i].envs, parts[i].seqs = si.cluster.ShardSnapshot(i)
	}
	kind := storeKindWindowed
	if si.engines != nil {
		kind = storeKindEngine
	}
	return saveStore(dir, storeSpec{
		kind:        kind,
		backend:     si.cluster.Backend(0),
		sketchWidth: si.cluster.SketchWidth(),
		segRecords:  si.segRecords,
		radius:      si.radius,
		sharded:     true,
		// Captured after the shard snapshots, so every saved sequence is
		// below it.
		nextSeq: si.cluster.NextSeq(),
	}, parts)
}

// kind names the index's backend as the store manifest records it.
func (ix *Index) kind() string {
	if ix.engine != nil {
		return storeKindEngine
	}
	return storeKindWindowed
}

// OpenIndex opens a segment store written by SaveStore for an
// engine-backed index and serves from it: sketches, envelopes and
// endpoints load eagerly, raw values stay on disk until a candidate
// survives the lower-bound cascade. opts must describe the same engine
// configuration the store was written under (ErrConfigMismatch
// otherwise). Add and Remove write through to the store. Crash residue
// (a torn active-segment tail, orphaned segment files) is repaired on
// the way in; AllowQuarantine additionally opts into serving around
// corrupt sealed segments.
func OpenIndex(dir string, opts Options, open ...OpenOption) (*Index, error) {
	return openIndex(dir, engineBackends(opts), open)
}

// OpenWindowedIndex opens a segment store written by SaveStore for a
// windowed index; its configuration (length and radius) travels inside
// the store's manifest, so no Options are needed.
func OpenWindowedIndex(dir string, open ...OpenOption) (*Index, error) {
	return openIndex(dir, windowedBackends, open)
}

// OpenShardedIndex opens a sharded store root written by
// ShardedIndex.SaveStore for an engine-backed cluster and serves from
// it. opts must describe the same engine configuration the stores were
// written under. The open is atomic across shards: one bad shard store
// fails the whole open — except under AllowQuarantine, where a shard
// with corrupt sealed segments serves its survivors (per-shard damage
// surfaces in StoreStats.ShardHealth).
func OpenShardedIndex(dir string, opts Options, open ...OpenOption) (*ShardedIndex, error) {
	return openShardedIndex(dir, engineBackends(opts), open)
}

// OpenShardedWindowedIndex opens a sharded store root written by
// ShardedIndex.SaveStore for a windowed cluster; length and radius
// travel inside the manifests.
func OpenShardedWindowedIndex(dir string, open ...OpenOption) (*ShardedIndex, error) {
	return openShardedIndex(dir, windowedBackends, open)
}

// addStore is the write-through Add of a store-backed Index. The core
// orders by position, so the insertion sequences the store keys
// tombstones on are kept beside it.
func (ix *Index) addStore(s Series) error {
	return ix.stores.add(0, s, func() (uint64, error) {
		if err := ix.core.Add(s); err != nil {
			return 0, err
		}
		seq := ix.nextSeq
		ix.seqs[s.ID] = seq
		ix.nextSeq++
		return seq, nil
	}, func() {
		// s was just added on top of a non-empty collection, so this
		// cannot hit the last-series refusal.
		ix.core.Remove(s.ID)
		delete(ix.seqs, s.ID)
		ix.nextSeq--
	})
}

// removeStore is the write-through Remove of a store-backed Index.
func (ix *Index) removeStore(id string) error {
	return ix.stores.remove(0, id, func() (uint64, error) {
		if err := ix.core.Remove(id); err != nil {
			return 0, err
		}
		seq := ix.seqs[id]
		delete(ix.seqs, id)
		return seq, nil
	})
}

// StoreBacked reports whether the index serves from a segment store.
func (ix *Index) StoreBacked() bool { return ix.stores != nil }

// Compact rewrites the store's live records into fresh segments,
// dropping tombstoned space. Searches keep serving throughout.
func (ix *Index) Compact() error { return ix.stores.each("Compact", (*store.Store).Compact) }

// StoreStats returns the segment store's counters, including the
// health its open reported (recovered, swept, quarantined).
func (ix *Index) StoreStats() (StoreStats, error) { return ix.stores.stats() }

// SyncStore flushes the store's active segment to stable storage: once
// it returns, every Append acknowledged before the call survives a
// power cut. Remove needs no barrier — tombstones are synced as they
// are appended.
func (ix *Index) SyncStore() error { return ix.stores.each("SyncStore", (*store.Store).Sync) }

// CloseStore releases the store's file handles. Searches may keep
// running against already-materialised values, but candidates whose
// values were never loaded will fail; close after draining.
func (ix *Index) CloseStore() error { return ix.stores.close() }

// addStore is the write-through Add of a store-backed ShardedIndex.
func (si *ShardedIndex) addStore(s Series) error {
	return si.stores.add(shard.Route(s.ID, si.shards), s,
		func() (uint64, error) { return si.cluster.Add(s) },
		func() { si.cluster.Remove(s.ID) })
}

// removeStore is the write-through Remove of a store-backed
// ShardedIndex.
func (si *ShardedIndex) removeStore(id string) error {
	return si.stores.remove(shard.Route(id, si.shards), id, func() (uint64, error) { return si.cluster.Remove(id) })
}

// StoreBacked reports whether the index serves from segment stores.
func (si *ShardedIndex) StoreBacked() bool { return si.stores != nil }

// Compact rewrites every shard store's live records into fresh
// segments, dropping tombstoned space. Searches keep serving
// throughout.
func (si *ShardedIndex) Compact() error { return si.stores.each("Compact", (*store.Store).Compact) }

// StoreStats aggregates the per-shard stores' counters and health;
// ShardHealth carries the per-shard breakdown.
func (si *ShardedIndex) StoreStats() (StoreStats, error) { return si.stores.stats() }

// SyncStore flushes every shard store's active segment to stable
// storage: once it returns, every Append acknowledged before the call
// survives a power cut.
func (si *ShardedIndex) SyncStore() error { return si.stores.each("SyncStore", (*store.Store).Sync) }

// CloseStore releases every shard store's file handles; close after
// draining searches.
func (si *ShardedIndex) CloseStore() error { return si.stores.close() }
