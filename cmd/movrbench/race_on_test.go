//go:build race

package main

// raceEnabled reports that this test binary runs under the race
// detector, whose runtime spends CPU outside any Go stack, so profile
// attribution cannot cover it.
const raceEnabled = true
