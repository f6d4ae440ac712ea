package main

// Example runs the quickstart exactly as
// `go run ./examples/quickstart` does. The cluster runs on its own virtual
// clock, so every run prints the same output, on any machine.
func Example() {
	main()
	// Output:
	// read "hello" from the local replica
	// accepted     likelihood=0.996 after 0s
	// SPECULATIVE  likelihood=0.996 — safe to respond to the user now
	// speculative  likelihood=0.999 votes=1/5 after 0s
	// speculative  likelihood=1.000 votes=2/5 after 4ms
	// speculative  likelihood=1.000 votes=3/5 after 6ms
	// speculative  likelihood=1.000 votes=4/5 after 8ms
	// speculative  likelihood=1.000 votes=4/5 after 8ms
	// FINAL        txn-72057594037927937 committed in 7.660937ms
	// replica us-west       : "hello, planet" (version 1)
	// replica us-east       : "hello, planet" (version 1)
	// replica eu-west       : "hello, planet" (version 1)
	// replica ap-southeast  : "hello, planet" (version 1)
	// replica ap-northeast  : "hello, planet" (version 1)
}
