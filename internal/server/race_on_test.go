//go:build race

package server

// raceEnabled reports that this test binary runs under the race
// detector, which drops sync.Pool entries at random and so makes
// allocation counts vary.
const raceEnabled = true
