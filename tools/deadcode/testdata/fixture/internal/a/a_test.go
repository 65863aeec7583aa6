package a

import "testing"

func TestA(t *testing.T) {
	if TestOnly() != 2 || Oracle() != 4 {
		t.Fatal("fixture")
	}
}
