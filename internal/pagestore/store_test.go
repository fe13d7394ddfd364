package pagestore

import (
	"bytes"
	"testing"
)

func TestStoreAppendReadAt(t *testing.T) {
	acc := New(16, 0)
	s := NewStore(acc)
	data := []byte("hello, paged world! 0123456789abcdef tail")
	id := s.Append(data)
	data[0] = 'X' // Append copies: the stored run must not see this
	r := acc.NewReader()
	got, err := s.ViewTo(r, id, 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("hello, paged world! 0123456789abcdef tail")) {
		t.Fatalf("round trip mismatch: %q", got)
	}
	// Whole run spans ceil(41/16) = 3 pages.
	if got := r.Stats().Accesses; got != 3 {
		t.Errorf("full read accesses = %d, want 3", got)
	}
}

func TestStorePartialReadCharging(t *testing.T) {
	acc := New(16, 0)
	s := NewStore(acc)
	data := make([]byte, 64) // 4 pages
	for i := range data {
		data[i] = byte(i)
	}
	id := s.Append(data)
	r := acc.NewReader()
	// Bytes 20..28 live entirely in page 1.
	got, err := s.ViewTo(r, id, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats().Accesses != 1 {
		t.Errorf("single-page read charged %d pages", r.Stats().Accesses)
	}
	if len(got) != 8 || got[0] != 20 || got[7] != 27 {
		t.Errorf("partial read bytes wrong: %v", got)
	}
	if cap(got) != 8 {
		t.Errorf("view capacity %d reaches past the read", cap(got))
	}
	// Bytes 14..30 straddle pages 0 and 1.
	r = acc.NewReader()
	if _, err := s.ViewTo(r, id, 14, 16); err != nil {
		t.Fatal(err)
	}
	if r.Stats().Accesses != 2 {
		t.Errorf("straddling read charged %d pages, want 2", r.Stats().Accesses)
	}
}

func TestStoreReadErrors(t *testing.T) {
	acc := New(16, 0)
	s := NewStore(acc)
	id := s.Append([]byte("abc"))
	r := acc.NewReader()
	if _, err := s.ViewTo(r, id, 2, 5); err == nil {
		t.Error("read past run end should error")
	}
	if _, err := s.ViewTo(r, id, -1, 1); err == nil {
		t.Error("negative offset should error")
	}
	if _, err := s.ViewTo(r, id+100, 0, 1); err == nil {
		t.Error("unknown run should error")
	}
	if got := r.Stats().Accesses; got != 0 {
		t.Errorf("failed reads charged %d pages", got)
	}
}

func TestStoreNamespaceSharedWithAccountant(t *testing.T) {
	acc := New(16, 0)
	s := NewStore(acc)
	nodeID, _ := acc.Allocate(40) // simulate an index node allocation
	dataID := s.Append(make([]byte, 40))
	if nodeID == dataID {
		t.Error("store run collided with direct allocation")
	}
	if dataID <= nodeID {
		t.Error("allocations should be monotone in one namespace")
	}
}

func TestStoreEmptyRun(t *testing.T) {
	acc := New(16, 0)
	s := NewStore(acc)
	id := s.Append(nil)
	r := acc.NewReader()
	got, err := s.ViewTo(r, id, 0, 0)
	if err != nil {
		t.Errorf("zero-length read: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("zero-length read returned %d bytes", len(got))
	}
}

func TestStorePanicsWithoutAccountant(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStore(nil)
}
