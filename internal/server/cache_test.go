package server

import (
	"strings"
	"testing"
)

func TestResultKeySeparatesComponents(t *testing.T) {
	// The key must be injective over its three components: moving bytes
	// across the component boundary must change the hash.
	a := resultKey("fp", "/v1/mine", "region=ITA")
	b := resultKey("fp", "/v1/mineregion=ITA", "")
	c := resultKey("fp/v1/mine", "", "region=ITA")
	if a == b || a == c || b == c {
		t.Fatal("component boundaries not separated in the key")
	}
	if len(a) != 64 || strings.ToLower(a) != a {
		t.Fatalf("key %q is not lowercase hex sha256", a)
	}
	if a != resultKey("fp", "/v1/mine", "region=ITA") {
		t.Fatal("key not deterministic")
	}
}
