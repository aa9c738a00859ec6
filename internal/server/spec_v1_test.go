package server

import (
	"strings"
	"testing"
)

// TestSpecVersionFoldsAway pins the v1 versioning contract: v omitted
// and v:1 are the same spec (bit-identical canonical hash, so every
// pre-version pinned hash and cache entry stays valid), and any other
// version is rejected.
func TestSpecVersionFoldsAway(t *testing.T) {
	base := JobSpec{Kind: "fleet", Fleet: &FleetJobSpec{Scenario: "home", Sessions: 4, Seed: 3}}
	v1 := base
	v1.V = 1
	h0, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h1, err := v1.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h0 != h1 {
		t.Fatalf("v:1 changed the canonical hash: %s vs %s", h1, h0)
	}
	norm, err := v1.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.V != 0 {
		t.Fatalf("normalized V = %d, want 0 (folded away)", norm.V)
	}
	v2 := base
	v2.V = 2
	if _, err := v2.Hash(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("v:2 not rejected as an unknown version: %v", err)
	}
}

// TestAggModeHashing pins the aggregation field's hash behavior: the
// exact default folds away (pre-streaming hashes unchanged), streaming
// is a distinct cacheable spec, and unknown modes are invalid.
func TestAggModeHashing(t *testing.T) {
	base := JobSpec{Kind: "fleet", Fleet: &FleetJobSpec{Scenario: "mixed", Sessions: 4, Seed: 9}}
	exact := base
	exact.Fleet = &FleetJobSpec{Scenario: "mixed", Sessions: 4, Seed: 9, Agg: "exact"}
	h0, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hExact, err := exact.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h0 != hExact {
		t.Fatalf(`agg "exact" changed the canonical hash`)
	}
	streamSpec := base
	streamSpec.Fleet = &FleetJobSpec{Scenario: "mixed", Sessions: 4, Seed: 9, Agg: "stream"}
	hStream, err := streamSpec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hStream == h0 {
		t.Fatal("streaming spec hashes equal to the exact spec — the cache would serve the wrong result shape")
	}
	bad := base
	bad.Fleet = &FleetJobSpec{Scenario: "mixed", Sessions: 4, Seed: 9, Agg: "approx"}
	if _, err := bad.Hash(); err == nil {
		t.Fatal("unknown agg mode accepted")
	}
}
