package memtable

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"noblsm/internal/keys"
)

type mentry struct {
	uk   string
	seq  keys.SeqNum
	kind keys.Kind
	v    string
}

func TestMemtableModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		m := New(int64(trial))
		var es []mentry
		seq := keys.SeqNum(1)
		n := rnd.Intn(300) + 1
		for i := 0; i < n; i++ {
			uk := fmt.Sprintf("k%03d", rnd.Intn(60))
			kind := keys.KindValue
			if rnd.Intn(4) == 0 {
				kind = keys.KindDelete
			}
			v := fmt.Sprintf("v%d", i)
			m.Add(seq, kind, []byte(uk), []byte(v))
			es = append(es, mentry{uk, seq, kind, v})
			seq++
		}
		// Model: sorted by internal order
		sorted := append([]mentry(nil), es...)
		sort.Slice(sorted, func(a, b int) bool {
			if sorted[a].uk != sorted[b].uk {
				return sorted[a].uk < sorted[b].uk
			}
			return sorted[a].seq > sorted[b].seq
		})
		it := m.NewIterator()
		i := 0
		for it.First(); it.Valid(); it.Next() {
			uk, s, kd, ok := keys.ParseInternalKey(it.Key())
			if !ok {
				t.Fatal("bad ikey")
			}
			w := sorted[i]
			if string(uk) != w.uk || s != w.seq || kd != w.kind || string(it.Value()) != w.v {
				t.Fatalf("trial %d idx %d: got %q@%d kind %v = %q want %q@%d kind %v = %q",
					trial, i, uk, s, kd, it.Value(), w.uk, w.seq, w.kind, w.v)
			}
			i++
		}
		if i != len(sorted) {
			t.Fatalf("trial %d: iterated %d of %d", trial, i, len(sorted))
		}
		// Get at random snapshots
		for probe := 0; probe < 200; probe++ {
			uk := fmt.Sprintf("k%03d", rnd.Intn(62))
			s := keys.SeqNum(rnd.Intn(int(seq) + 1))
			// model: newest entry for uk with seq <= s
			var best *mentry
			for j := range es {
				e := &es[j]
				if e.uk == uk && e.seq <= s && (best == nil || e.seq > best.seq) {
					best = e
				}
			}
			v, deleted, found := m.Get([]byte(uk), s)
			if best == nil {
				if found {
					t.Fatalf("trial %d: get %q@%d: found=%v want not found", trial, uk, s, found)
				}
				continue
			}
			if !found {
				t.Fatalf("trial %d: get %q@%d: not found, want %q (seq %d kind %v)", trial, uk, s, best.v, best.seq, best.kind)
			}
			if best.kind == keys.KindDelete {
				if !deleted {
					t.Fatalf("trial %d: get %q@%d: want deleted", trial, uk, s)
				}
			} else if deleted || string(v) != best.v {
				t.Fatalf("trial %d: get %q@%d: got %q deleted=%v want %q", trial, uk, s, v, deleted, best.v)
			}
			// Seek consistency
			it.Seek(keys.MakeInternalKey(nil, []byte(uk), s, keys.KindSeek))
			if !it.Valid() {
				t.Fatalf("trial %d: seek invalid but get found", trial)
			}
		}
	}
}
