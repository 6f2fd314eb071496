package main

import "testing"

func TestParseInts(t *testing.T) {
	got := parseInts("25, 50,100")
	want := []int{25, 50, 100}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if parseInts("7")[0] != 7 {
		t.Fatal("single value")
	}
}
