package main

// Example runs the box office exactly as
// `go run ./examples/ticketstore` does. The cluster runs on its own virtual
// clock, so every run prints the same output, on any machine.
func Example() {
	main()
	// Output:
	//   → apology email to buyer 5 (us-west): your 1 seat(s) fell through
	//   → apology email to buyer 30 (us-west): your 2 seat(s) fell through
	//   → apology email to buyer 10 (us-west): your 2 seat(s) fell through
	//   → apology email to buyer 5 (us-west): your 2 seat(s) fell through
	//   → apology email to buyer 16 (us-east): your 1 seat(s) fell through
	//   → apology email to buyer 16 (us-east): your 2 seat(s) fell through
	//   → apology email to buyer 16 (us-east): your 2 seat(s) fell through
	//   → apology email to buyer 6 (us-east): your 2 seat(s) fell through
	//   → apology email to buyer 21 (us-east): your 2 seat(s) fell through
	//   → apology email to buyer 25 (us-west): your 1 seat(s) fell through
	//   → apology email to buyer 25 (us-west): your 1 seat(s) fell through
	//   → apology email to buyer 31 (us-east): your 1 seat(s) fell through
	//   → apology email to buyer 1 (us-east): your 2 seat(s) fell through
	//   → apology email to buyer 11 (us-east): your 1 seat(s) fell through
	//   → apology email to buyer 26 (us-east): your 1 seat(s) fell through
	//   → apology email to buyer 36 (us-east): your 2 seat(s) fell through
	//   → apology email to buyer 33 (ap-southeast): your 2 seat(s) fell through
	//   → apology email to buyer 33 (ap-southeast): your 2 seat(s) fell through
	//   → apology email to buyer 8 (ap-southeast): your 2 seat(s) fell through
	//   → apology email to buyer 8 (ap-southeast): your 1 seat(s) fell through
	//   → apology email to buyer 0 (us-west): your 1 seat(s) fell through
	//   → apology email to buyer 35 (us-west): your 1 seat(s) fell through
	//   → apology email to buyer 19 (ap-northeast): your 1 seat(s) fell through
	//   → apology email to buyer 19 (ap-northeast): your 1 seat(s) fell through
	//   → apology email to buyer 34 (ap-northeast): your 2 seat(s) fell through
	//   → apology email to buyer 14 (ap-northeast): your 2 seat(s) fell through
	//   → apology email to buyer 9 (ap-northeast): your 2 seat(s) fell through
	//   → apology email to buyer 9 (ap-northeast): your 1 seat(s) fell through
	//   → apology email to buyer 24 (ap-northeast): your 2 seat(s) fell through
	//   → apology email to buyer 39 (ap-northeast): your 1 seat(s) fell through
	//   → apology email to buyer 29 (ap-northeast): your 1 seat(s) fell through
	//   → apology email to buyer 3 (ap-southeast): your 2 seat(s) fell through
	//   → apology email to buyer 20 (us-west): your 2 seat(s) fell through
	//   → apology email to buyer 30 (us-west): your 1 seat(s) fell through
	//   → apology email to buyer 10 (us-west): your 2 seat(s) fell through
	//   → apology email to buyer 5 (us-west): your 1 seat(s) fell through
	//   → apology email to buyer 18 (ap-southeast): your 2 seat(s) fell through
	//   → apology email to buyer 7 (eu-west): your 2 seat(s) fell through
	//   → apology email to buyer 7 (eu-west): your 1 seat(s) fell through
	//   → apology email to buyer 7 (eu-west): your 2 seat(s) fell through
	//   → apology email to buyer 13 (ap-southeast): your 2 seat(s) fell through
	//   → apology email to buyer 23 (ap-southeast): your 2 seat(s) fell through
	//   → apology email to buyer 21 (us-east): your 1 seat(s) fell through
	//   → apology email to buyer 25 (us-west): your 1 seat(s) fell through
	//   → apology email to buyer 31 (us-east): your 1 seat(s) fell through
	//   → apology email to buyer 1 (us-east): your 1 seat(s) fell through
	//   → apology email to buyer 11 (us-east): your 1 seat(s) fell through
	//   → apology email to buyer 32 (eu-west): your 2 seat(s) fell through
	//   → apology email to buyer 37 (eu-west): your 2 seat(s) fell through
	//   → apology email to buyer 32 (eu-west): your 1 seat(s) fell through
	//   → apology email to buyer 17 (eu-west): your 1 seat(s) fell through
	//   → apology email to buyer 2 (eu-west): your 2 seat(s) fell through
	//   → apology email to buyer 12 (eu-west): your 1 seat(s) fell through
	//   → apology email to buyer 27 (eu-west): your 2 seat(s) fell through
	//   → apology email to buyer 19 (ap-northeast): your 1 seat(s) fell through
	//   → apology email to buyer 14 (ap-northeast): your 2 seat(s) fell through
	//   → apology email to buyer 24 (ap-northeast): your 1 seat(s) fell through
	//   → apology email to buyer 0 (us-west): your 1 seat(s) fell through
	//   → apology email to buyer 34 (ap-northeast): your 2 seat(s) fell through
	//   → apology email to buyer 9 (ap-northeast): your 1 seat(s) fell through
	//   → apology email to buyer 32 (eu-west): your 2 seat(s) fell through
	//   → apology email to buyer 33 (ap-southeast): your 2 seat(s) fell through
	//   → apology email to buyer 8 (ap-southeast): your 2 seat(s) fell through
	//   → apology email to buyer 20 (us-west): your 2 seat(s) fell through
	//   → apology email to buyer 23 (ap-southeast): your 2 seat(s) fell through
	//
	// --- box office report ---
	// initial stock:          120
	// purchase attempts:      200
	// seats sold:             117
	// attempts denied:        115
	// optimistic confirms:    150 (apologies: 65)
	// mean perceived latency: 0s
	// mean final latency:     2ms
	// replica us-west       : 3 seats remaining ✓
	// replica us-east       : 3 seats remaining ✓
	// replica eu-west       : 3 seats remaining ✓
	// replica ap-southeast  : 3 seats remaining ✓
	// replica ap-northeast  : 3 seats remaining ✓
}
