package main

// Example runs the dashboard exactly as
// `go run ./examples/geodashboard` does. The cluster runs on its own virtual
// clock, so every run prints the same output, on any machine.
func Example() {
	main()
	// Output:
	// t          origin         event
	// 0s         us-west        accepted              likelihood=0.992
	// 0s         us-west        SPECULATIVE ✦         likelihood=0.992
	// 0s         us-east        accepted              likelihood=0.992
	// 0s         us-east        SPECULATIVE ✦         likelihood=0.992
	// 0s         eu-west        accepted              likelihood=0.992
	// 0s         eu-west        SPECULATIVE ✦         likelihood=0.992
	// 0s         ap-southeast   accepted              likelihood=0.992
	// 0s         ap-southeast   SPECULATIVE ✦         likelihood=0.992
	// 0s         ap-northeast   accepted              likelihood=0.992
	// 0s         ap-northeast   SPECULATIVE ✦         likelihood=0.992
	// 0s         ap-southeast   speculative [#.........] likelihood=0.997
	// 0s         ap-southeast   speculative [##........] likelihood=0.999
	// 0s         eu-west        speculative [#.........] likelihood=0.997
	// 0s         eu-west        speculative [##........] likelihood=0.999
	// 0s         us-east        speculative [#.........] likelihood=0.997
	// 0s         us-east        speculative [##........] likelihood=0.999
	// 0s         us-west        speculative [#.........] likelihood=0.997
	// 0s         us-west        speculative [##........] likelihood=0.999
	// 0s         ap-northeast   speculative [#.........] likelihood=0.997
	// 0s         ap-northeast   speculative [##........] likelihood=0.999
	// 3.5ms      ap-northeast   speculative [###.......] likelihood=0.999
	// 3.5ms      ap-northeast   speculative [####......] likelihood=1.000
	// 3.5ms      ap-southeast   speculative [###.......] likelihood=0.999
	// 3.5ms      ap-southeast   speculative [####......] likelihood=1.000
	// 3.8ms      us-east        speculative [###.......] likelihood=0.999
	// 3.8ms      us-east        speculative [####......] likelihood=1.000
	// 3.8ms      us-west        speculative [###.......] likelihood=0.999
	// 3.8ms      us-west        speculative [####......] likelihood=1.000
	// 4ms        us-east        speculative [#####.....] likelihood=1.000
	// 4ms        us-east        speculative [######....] likelihood=1.000
	// 4.1ms      eu-west        speculative [###.......] likelihood=0.999
	// 4.1ms      eu-west        speculative [####......] likelihood=1.000
	// 5.5ms      us-west        speculative [#####.....] likelihood=1.000
	// 5.5ms      us-west        speculative [######....] likelihood=1.000
	// 5.9ms      ap-northeast   speculative [#####.....] likelihood=1.000
	// 5.9ms      ap-northeast   speculative [######....] likelihood=1.000
	// 7.7ms      us-west        speculative [#######...] likelihood=1.000
	// 7.7ms      us-west        speculative [#######...] likelihood=1.000
	// 7.7ms      us-west        speculative [########..] likelihood=1.000
	// 7.7ms      us-west        speculative [########..] likelihood=1.000
	// 7.7ms      us-west        COMMITTED ✓ after 8ms
	// 7.8ms      eu-west        speculative [#####.....] likelihood=1.000
	// 7.8ms      eu-west        speculative [######....] likelihood=1.000
	// 7.9ms      us-east        speculative [#######...] likelihood=1.000
	// 7.9ms      us-east        speculative [#######...] likelihood=1.000
	// 7.9ms      us-east        speculative [########..] likelihood=1.000
	// 7.9ms      us-east        speculative [########..] likelihood=1.000
	// 7.9ms      us-east        COMMITTED ✓ after 8ms
	// 8ms        ap-northeast   speculative [#######...] likelihood=1.000
	// 8ms        ap-northeast   speculative [#######...] likelihood=1.000
	// 8ms        ap-northeast   speculative [########..] likelihood=1.000
	// 8ms        ap-northeast   speculative [########..] likelihood=1.000
	// 8ms        ap-northeast   COMMITTED ✓ after 8ms
	// 8.8ms      ap-southeast   speculative [#####.....] likelihood=1.000
	// 8.8ms      ap-southeast   speculative [######....] likelihood=1.000
	// 11ms       ap-southeast   speculative [#######...] likelihood=1.000
	// 11ms       ap-southeast   speculative [#######...] likelihood=1.000
	// 11ms       ap-southeast   speculative [########..] likelihood=1.000
	// 11ms       ap-southeast   speculative [########..] likelihood=1.000
	// 11ms       ap-southeast   COMMITTED ✓ after 11ms
	// 11.6ms     eu-west        speculative [#######...] likelihood=1.000
	// 11.6ms     eu-west        speculative [#######...] likelihood=1.000
	// 11.6ms     eu-west        speculative [########..] likelihood=1.000
	// 11.6ms     eu-west        speculative [########..] likelihood=1.000
	// 11.6ms     eu-west        COMMITTED ✓ after 12ms
}
