package smr

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refKV is the map-backed machine KVStore was before it kept its entries
// sorted: Snapshot sorts the keys and joins the pairs on every call.
type refKV map[string]string

func (m refKV) apply(cmd string) string {
	f := strings.Fields(cmd)
	if len(f) == 0 {
		return "err empty"
	}
	switch f[0] {
	case "set":
		if len(f) < 3 {
			return "err set"
		}
		m[f[1]] = strings.Join(f[2:], " ")
	case "del":
		if len(f) < 2 {
			return "err del"
		}
		delete(m, f[1])
	case "append":
		if len(f) < 3 {
			return "err append"
		}
		m[f[1]] += strings.Join(f[2:], " ")
	default:
		return "err unknown"
	}
	return "ok"
}

func (m refKV) snapshot() string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+m[k])
	}
	return strings.Join(parts, ",")
}

// snapKeys are chosen where sorted order is easy to get wrong: k9 sorts
// after k10 and k1 before it, and byte order puts the non-ASCII keys last.
var snapKeys = []string{"k1", "k9", "k10", "k", "a", "ключ", "é", "k1é", "Z"}

// TestSortedSnapshotMatchesReference holds KVStore to the sort+join
// reference under seeded random commands, malformed ones included: every
// response, Snapshot and Get must agree.
func TestSortedSnapshotMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		key := func() string { return snapKeys[rng.Intn(len(snapKeys))] }
		kv, rkv := NewKVStore(), refKV{}
		for step := 0; step < 400; step++ {
			var cmd string
			switch rng.Intn(6) {
			case 0, 1:
				cmd = fmt.Sprintf("set %s v%d x", key(), rng.Intn(1000))
			case 2:
				cmd = "del " + key()
			case 3:
				cmd = fmt.Sprintf("append %s ,=%d", key(), rng.Intn(10))
			case 4:
				cmd = []string{"", "set k", "del", "append k", "nope k v"}[rng.Intn(5)]
			default:
				cmd = "set " + key() + " ü"
			}
			if got, want := kv.Apply(cmd), rkv.apply(cmd); got != want {
				t.Fatalf("seed %d: KVStore.Apply(%q) = %q, reference %q", seed, cmd, got, want)
			}
			if got, want := kv.Snapshot(), rkv.snapshot(); got != want {
				t.Fatalf("seed %d after %q: KVStore snapshot %q, reference %q", seed, cmd, got, want)
			}
		}
		for _, k := range snapKeys {
			v, ok := kv.Get(k)
			if rv, rok := rkv[k]; v != rv || ok != rok {
				t.Fatalf("seed %d: Get(%q) = %q,%v, reference %q,%v", seed, k, v, ok, rv, rok)
			}
		}
	}
}

func kvWithKeys(n int) *KVStore {
	kv := NewKVStore()
	for i := range n {
		kv.Apply(fmt.Sprintf("set key%d value%d", i, i))
	}
	return kv
}

// TestSnapshotAllocs is the tier-1 guard on the read path: a KVStore
// snapshot of 256 keys is one pass into one allocation.
func TestSnapshotAllocs(t *testing.T) {
	kv := kvWithKeys(256)
	if a := testing.AllocsPerRun(100, func() { _ = kv.Snapshot() }); a > 1 {
		t.Errorf("KVStore.Snapshot at 256 keys: %.0f allocs, want at most 1", a)
	}
}

// BenchmarkKVSnapshot256 measures one KVStore.Snapshot of 256 keys.
func BenchmarkKVSnapshot256(b *testing.B) {
	kv := kvWithKeys(256)
	b.ReportAllocs()
	for b.Loop() {
		kv.Snapshot()
	}
}
