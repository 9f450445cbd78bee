package smr

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// refCounter is Counter as it was before its commands were split without
// allocating: strings.Fields, and a fmt.Sprintf per key in Snapshot.
type refCounter map[string]int64

func (m refCounter) apply(cmd string) string {
	f := strings.Fields(cmd)
	if len(f) < 2 {
		return "err"
	}
	n := int64(1)
	if len(f) >= 3 {
		if v, err := strconv.ParseInt(f[2], 10, 64); err == nil {
			n = v
		}
	}
	switch f[0] {
	case "inc":
		m[f[1]] += n
	case "dec":
		m[f[1]] -= n
	default:
		return "err unknown"
	}
	return strconv.FormatInt(m[f[1]], 10)
}

func (m refCounter) snapshot() string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, ",")
}

// FuzzKVApply holds the allocation-free command parser to the
// strings.Fields/strings.Join reference: field by field, for the joined
// rest after each field, and through KVStore and Counter against refKV and
// refCounter (responses and snapshots, with each command applied twice so
// that append, inc and dec meet an existing key).
func FuzzKVApply(f *testing.F) {
	for _, s := range []string{
		"set k v", "set k v1 v2", "set\tk\tv", "set  k   v1   v2  ", "  set k v  ",
		"set k v", "set k v w", "set k v\u0085w", "set k \xff v",
		"set k", "set k ", "set k \t ", "", "   ", "\t\n",
		"append k v", "append k  a\tb ", "append k", "del k", "del k extra", "del",
		"inc x", "inc x 5", "dec x -3 extra", "inc x notanumber", "inc x 2",
		"dec x 9223372036854775807", "inc", "nope k v",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, cmd string) {
		want := strings.Fields(cmd)
		var got []string
		for rest := fields(cmd); ; {
			if r, w := rest.rest(), strings.Join(want[len(got):], " "); r != w {
				t.Fatalf("fields(%q) after %q: rest %q, want %q", cmd, got, r, w)
			}
			w := rest.next()
			if w == "" {
				break
			}
			got = append(got, w)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("fields(%q) = %q, strings.Fields gives %q", cmd, got, want)
		}

		kv, rkv := NewKVStore(), refKV{}
		c, rc := NewCounter(), refCounter{}
		for range 2 {
			if g, w := kv.Apply(cmd), rkv.apply(cmd); g != w {
				t.Fatalf("KVStore.Apply(%q) = %q, reference %q", cmd, g, w)
			}
			if g, w := kv.Snapshot(), rkv.snapshot(); g != w {
				t.Fatalf("after %q: KVStore snapshot %q, reference %q", cmd, g, w)
			}
			if g, w := c.Apply(cmd), rc.apply(cmd); g != w {
				t.Fatalf("Counter.Apply(%q) = %q, reference %q", cmd, g, w)
			}
			if g, w := c.Snapshot(), rc.snapshot(); g != w {
				t.Fatalf("after %q: Counter snapshot %q, reference %q", cmd, g, w)
			}
		}
	})
}

// TestApplyAllocs is the tier-1 guard on the apply path: a write to an
// existing key whose value is single-spaced allocates nothing, and neither
// does a counter update that names an existing counter.
func TestApplyAllocs(t *testing.T) {
	kv, c := NewKVStore(), NewCounter()
	kv.Apply("set k v")
	c.Apply("inc x")
	for _, tc := range []struct {
		m   StateMachine
		cmd string
	}{
		{kv, "set k v1 v2"},
		{kv, "del missing"},
		{c, "inc x 0"},
	} {
		if a := testing.AllocsPerRun(100, func() { tc.m.Apply(tc.cmd) }); a != 0 {
			t.Errorf("Apply(%q): %.0f allocs, want 0", tc.cmd, a)
		}
	}
}
