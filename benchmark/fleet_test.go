package main

import "testing"

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	line := "4242 (planet d) (x)) S 17 4242 17 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	st, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if st.comm != "planet d) (x)" || st.state != 'S' || st.ppid != 17 {
		t.Errorf("parsed %+v", st)
	}
	if st.cpuMs != 3000 {
		t.Errorf("cpuMs = %v, want (250+50) ticks = 3000 ms", st.cpuMs)
	}
	for _, bad := range []string{"", "1 (x", "1 (x) S 2"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) did not fail", bad)
		}
	}
}
