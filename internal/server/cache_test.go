package server

import (
	"bytes"
	"fmt"
	"testing"
)

func TestCacheGetPut(t *testing.T) {
	c := newCache(4)
	if _, _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", []byte("alpha"), "sha-alpha")
	v, sha, ok := c.Get("a")
	if !ok || !bytes.Equal(v, []byte("alpha")) || sha != "sha-alpha" {
		t.Fatalf("Get(a) = %q, %q, %v", v, sha, ok)
	}
	c.Put("a", []byte("alpha2"), "sha-alpha2")
	if v, sha, _ := c.Get("a"); !bytes.Equal(v, []byte("alpha2")) || sha != "sha-alpha2" {
		t.Fatalf("overwrite lost: %q, %q", v, sha)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := newCache(3)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}, "")
	}
	c.Get("k0") // refresh k0; k1 is now least recent
	c.Put("k3", []byte{3}, "")
	if _, _, ok := c.Get("k1"); ok {
		t.Error("k1 should have been evicted")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, _, ok := c.Get(k); !ok {
			t.Errorf("%s should have survived", k)
		}
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d, want 3", c.Len())
	}
}
