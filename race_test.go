//go:build race

package metainsight_test

// raceEnabled reports a build with the race detector, whose runtime drops
// sync.Pool items at random: allocation counts under it do not measure the
// program.
const raceEnabled = true
