package artifact

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestFingerprintInjective(t *testing.T) {
	// Adjacent fields must not alias across boundaries.
	a := NewFingerprint("d").Str("ab").Str("c").Done()
	b := NewFingerprint("d").Str("a").Str("bc").Done()
	if a == b {
		t.Error("field boundaries alias")
	}
	// Domains separate identical field sequences.
	if NewFingerprint("x").Int(1).Done() == NewFingerprint("y").Int(1).Done() {
		t.Error("domains do not separate keys")
	}
	// Types separate identical bit patterns.
	if NewFingerprint("d").Int(0).Done() == NewFingerprint("d").F64(0).Done() {
		t.Error("field types do not separate keys")
	}
	// Same inputs, same key.
	if NewFingerprint("d").Str("a").Bool(true).Done() != NewFingerprint("d").Str("a").Bool(true).Done() {
		t.Error("fingerprint is not deterministic")
	}
	// Done is a snapshot, not a finalizer.
	f := NewFingerprint("d").Str("a")
	k1 := f.Done()
	k2 := f.Int(2).Done()
	if k1 == k2 {
		t.Error("Done must snapshot, later fields must change the key")
	}
}

func TestStoreGetPut(t *testing.T) {
	s := NewStore(1000)
	k := KeyOf("t", []byte("a"))
	if _, ok := s.Get(k); ok {
		t.Fatal("empty store hit")
	}
	s.Put(k, "v", 10)
	v, ok := s.Get(k)
	if !ok || v.(string) != "v" {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.SizeBytes != 10 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s := NewStore(30)
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = KeyOf("t", []byte{byte(i)})
		s.Put(keys[i], i, 10)
	}
	// 4×10 bytes over a 30-byte cap: the oldest key is gone.
	if _, ok := s.Get(keys[0]); ok {
		t.Error("LRU victim survived")
	}
	for _, k := range keys[1:] {
		if _, ok := s.Get(k); !ok {
			t.Errorf("recent key %s evicted", k[:8])
		}
	}
	// Touching keys[1] protects it from the next eviction round.
	s.Get(keys[1])
	s.Put(KeyOf("t", []byte("new")), "x", 10)
	if _, ok := s.Get(keys[1]); !ok {
		t.Error("recently-used key evicted before older ones")
	}
	if _, ok := s.Get(keys[2]); ok {
		t.Error("least-recently-used key survived")
	}
	if s.Stats().Evictions != 2 {
		t.Errorf("evictions = %d, want 2", s.Stats().Evictions)
	}
}

func TestStoreOversizedArtifactNotCached(t *testing.T) {
	s := NewStore(5)
	k := KeyOf("t", []byte("big"))
	s.Put(k, "x", 10)
	if _, ok := s.Get(k); ok {
		t.Error("artifact larger than the store bound was cached")
	}
}

func TestDoSingleflight(t *testing.T) {
	s := NewStore(1 << 20)
	k := KeyOf("t", []byte("once"))
	var builds atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	vals := make([]any, 16)
	for i := range vals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, _, err := s.Do(k, func() (any, int64, error) {
				builds.Add(1)
				return "built", 8, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("build ran %d times under contention, want 1", n)
	}
	for i, v := range vals {
		if v.(string) != "built" {
			t.Errorf("caller %d got %v", i, v)
		}
	}
	// Warm key: no rebuild, hit reported.
	_, hit, err := s.Do(k, func() (any, int64, error) {
		builds.Add(1)
		return nil, 0, nil
	})
	if err != nil || !hit || builds.Load() != 1 {
		t.Errorf("warm Do: hit=%v builds=%d err=%v", hit, builds.Load(), err)
	}
}

func TestDoErrorsNotCached(t *testing.T) {
	s := NewStore(1 << 20)
	k := KeyOf("t", []byte("err"))
	boom := errors.New("boom")
	if _, _, err := s.Do(k, func() (any, int64, error) { return nil, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, hit, err := s.Do(k, func() (any, int64, error) { return "ok", 2, nil })
	if err != nil || hit || v.(string) != "ok" {
		t.Errorf("retry after error: v=%v hit=%v err=%v (errors must not be cached)", v, hit, err)
	}
}

func TestNilStore(t *testing.T) {
	var s *Store
	if _, ok := s.Get(KeyOf("t")); ok {
		t.Error("nil store hit")
	}
	s.Put(KeyOf("t"), 1, 1) // must not panic
	ran := false
	v, hit, err := s.Do(KeyOf("t"), func() (any, int64, error) { ran = true; return 7, 1, nil })
	if err != nil || hit || v.(int) != 7 || !ran {
		t.Errorf("nil-store Do: v=%v hit=%v ran=%v err=%v", v, hit, ran, err)
	}
	if s.Len() != 0 || s.Stats() != (Stats{}) {
		t.Error("nil store reports occupancy")
	}
}

func TestStoreConcurrencySmoke(t *testing.T) {
	s := NewStore(500)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := KeyOf("t", []byte(fmt.Sprint(i%37)))
				if _, ok := s.Get(k); !ok {
					s.Put(k, i, int64(i%50))
				}
				s.Do(k, func() (any, int64, error) { return g, 10, nil })
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.SizeBytes > st.CapBytes {
		t.Errorf("size %d exceeds cap %d", st.SizeBytes, st.CapBytes)
	}
}
