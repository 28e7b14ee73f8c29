package main

import "testing"

func TestRunPlaintextDay(t *testing.T) {
	if err := run([]string{"-homes", "12", "-windows", "60"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunPrivateTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: full crypto day")
	}
	if err := run([]string{"-homes", "4", "-windows", "2", "-private", "-keybits", "256"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-homes", "0"}); err == nil {
		t.Error("zero homes accepted")
	}
}
