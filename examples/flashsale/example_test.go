package main

// Example runs both flash sales exactly as
// `go run ./examples/flashsale` does. The cluster runs on its own virtual
// clock, so every run prints the same output, on any machine.
func Example() {
	main()
	// Output:
	// === flash sale without admission control ===
	// offered: 400  committed: 51  aborted-after-roundtrip: 349  rejected-instantly: 0
	// commit rate of admitted work: 12.8%
	// time-to-feedback: p50=3ms p95=6ms
	//
	// === flash sale with admission control ===
	// offered: 400  committed: 13  aborted-after-roundtrip: 11  rejected-instantly: 376
	// commit rate of admitted work: 54.2%
	// time-to-feedback: p50=0s p95=3ms
}
