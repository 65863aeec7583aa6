//go:build race

package core

// raceEnabled gates the footprint tests: the race detector's shadow memory
// and allocator changes make heap sizes meaningless.
const raceEnabled = true
