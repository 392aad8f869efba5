package shard

import (
	"errors"
	"fmt"
	"testing"

	"sdtw/internal/retrieve"
	"sdtw/internal/series"
	"sdtw/internal/sketch"
)

const testLen = 8

func testConfig(shards int) Config {
	return Config{
		Shards: shards,
		NewBackend: func(int) (retrieve.Backend, error) {
			b, _, err := retrieve.NewWindowedBackend(testLen, 2)
			return b, err
		},
		Workers:     2,
		Abandon:     true,
		SketchWidth: 4,
	}
}

func testSeries(i int) series.Series {
	v := make([]float64, testLen)
	for j := range v {
		v[j] = float64((i*7+j*3)%11) - 5
	}
	return series.New(fmt.Sprintf("s-%d", i), i%3, v)
}

// TestRoute: placement is a pure function of (ID, shard count) — FNV-1a
// modulo the count, pinned here because segment stores persist it — and
// always lands in range.
func TestRoute(t *testing.T) {
	for _, tc := range []struct {
		id     string
		shards int
		want   int
	}{
		{"a", 4, 0}, {"a", 7, 5},
		{"series-1", 4, 2}, {"series-1", 7, 2},
		{"s-42", 4, 3}, {"s-42", 7, 5},
	} {
		if got := Route(tc.id, tc.shards); got != tc.want {
			t.Errorf("Route(%q, %d) = %d, want %d", tc.id, tc.shards, got, tc.want)
		}
	}
	for shards := 1; shards <= 9; shards++ {
		for i := 0; i < 200; i++ {
			id := fmt.Sprintf("id-%d", i)
			got := Route(id, shards)
			if got < 0 || got >= shards {
				t.Fatalf("Route(%q, %d) = %d, out of range", id, shards, got)
			}
			if again := Route(id, shards); again != got {
				t.Fatalf("Route(%q, %d) unstable: %d then %d", id, shards, got, again)
			}
		}
	}
}

// TestEmptyIDReportsErrNoID: every entry point that routes by ID refuses
// an empty one with ErrNoID.
func TestEmptyIDReportsErrNoID(t *testing.T) {
	cfg := testConfig(3)
	anon := testSeries(0)
	anon.ID = ""
	if _, err := New(cfg, []series.Series{testSeries(1), anon}); !errors.Is(err, ErrNoID) {
		t.Errorf("New with an anonymous series: %v, want ErrNoID", err)
	}
	c, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add(anon); !errors.Is(err, ErrNoID) {
		t.Errorf("Add anonymous: %v, want ErrNoID", err)
	}
	if _, err := c.Remove(""); !errors.Is(err, ErrNoID) {
		t.Errorf("Remove empty ID: %v, want ErrNoID", err)
	}
}

// TestRemoveReturnsAddSequence: the storage layer tombstones on
// (ID, insertion sequence), so Remove must hand back exactly the
// sequence Add assigned — also after other mutations and for the last
// series of a shard, which drains it to empty.
func TestRemoveReturnsAddSequence(t *testing.T) {
	c, err := New(testConfig(3), []series.Series{testSeries(0), testSeries(1)})
	if err != nil {
		t.Fatal(err)
	}
	seqs := map[string]uint64{"s-0": 0, "s-1": 1}
	for i := 2; i < 12; i++ {
		s := testSeries(i)
		seq, err := c.Add(s)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("Add %q assigned sequence %d, want %d", s.ID, seq, i)
		}
		seqs[s.ID] = seq
	}
	if _, err := c.Remove("s-5"); err != nil {
		t.Fatal(err)
	}
	delete(seqs, "s-5")
	if seq, err := c.Add(testSeries(5)); err != nil || seq != 12 {
		t.Fatalf("re-Add s-5: sequence %d, %v; want 12", seq, err)
	}
	seqs["s-5"] = 12
	for id, want := range seqs {
		got, err := c.Remove(id)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Remove %q returned sequence %d, Add assigned %d", id, got, want)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("cluster holds %d series after removing all", c.Len())
	}
	if got := c.NextSeq(); got != 13 {
		t.Fatalf("NextSeq after removals = %d, want 13 (sequences are never reused)", got)
	}
}

// TestRestoreColdPreservesSequences: a cluster rebuilt from per-shard
// cold state keeps every shard's insertion sequences (the cross-shard
// tie-break order) and resumes numbering at the restored NextSeq.
func TestRestoreColdPreservesSequences(t *testing.T) {
	cfg := testConfig(3)
	warm, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := warm.Add(testSeries(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := warm.Remove("s-3"); err != nil {
		t.Fatal(err)
	}
	parts := make([][]retrieve.ColdSeries, cfg.Shards)
	seqs := make([][]uint64, cfg.Shards)
	for i := range parts {
		data, envs, sq := warm.ShardSnapshot(i)
		seqs[i] = sq
		for j, s := range data {
			sk, err := sketch.FromEnvelope(envs[j], cfg.SketchWidth)
			if err != nil {
				t.Fatal(err)
			}
			vals := s.Values
			parts[i] = append(parts[i], retrieve.ColdSeries{
				ID: s.ID, Label: s.Label, N: len(vals), First: vals[0], Last: vals[len(vals)-1],
				Envelope: envs[j], Sketch: sk,
				Load: func() ([]float64, error) { return vals, nil },
			})
		}
	}
	cold, err := RestoreCold(cfg, parts, seqs, warm.NextSeq())
	if err != nil {
		t.Fatal(err)
	}
	for i := range parts {
		_, _, got := cold.ShardSnapshot(i)
		if fmt.Sprint(got) != fmt.Sprint(seqs[i]) {
			t.Errorf("shard %d sequences %v after restore, want %v", i, got, seqs[i])
		}
	}
	if cold.NextSeq() != warm.NextSeq() {
		t.Fatalf("NextSeq %d after restore, want %d", cold.NextSeq(), warm.NextSeq())
	}
	if seq, err := cold.Add(testSeries(3)); err != nil || seq != 10 {
		t.Fatalf("Add after restore: sequence %d, %v; want 10", seq, err)
	}
	if seq, err := cold.Remove("s-7"); err != nil || seq != 7 {
		t.Fatalf("Remove s-7 after restore: sequence %d, %v; want 7", seq, err)
	}
	if _, err := RestoreCold(cfg, parts[:2], seqs[:2], 0); !errors.Is(err, retrieve.ErrConfigMismatch) {
		t.Fatalf("RestoreCold with a missing shard: %v, want ErrConfigMismatch", err)
	}
}
