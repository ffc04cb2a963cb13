package arch

import "testing"

func TestParseTrapPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want TrapPolicy
		ok   bool
	}{
		{"", TrapOff, true},
		{"off", TrapOff, true},
		{"halt", TrapHalt, true},
		{"retry", TrapRetry, true},
		{"quiet", TrapQuietNaN, true},
		{"quietnan", TrapQuietNaN, true},
		{"explode", TrapOff, false},
		{"HALT", TrapOff, false},
	} {
		got, err := ParseTrapPolicy(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseTrapPolicy(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseTrapPolicy(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestTrapPolicyStringRoundTrip(t *testing.T) {
	for _, p := range []TrapPolicy{TrapOff, TrapHalt, TrapRetry, TrapQuietNaN} {
		got, err := ParseTrapPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v: got %v, err %v", p, got, err)
		}
	}
	if TrapPolicy(99).String() == "" {
		t.Error("unknown policy has empty String")
	}
}

func TestTrapConfigDefaultsAndBackoff(t *testing.T) {
	if TrapRetries != 3 {
		t.Errorf("node retry budget %d, want 3", TrapRetries)
	}
	// Exponential, capped.
	if b := Backoff(0); b != 64 {
		t.Errorf("backoff(0) = %d", b)
	}
	if b := Backoff(3); b != 512 {
		t.Errorf("backoff(3) = %d", b)
	}
	if b := Backoff(20); b != 4096 {
		t.Errorf("backoff(20) = %d, want cap 4096", b)
	}
}

func TestTrapConfigArmed(t *testing.T) {
	if (TrapConfig{}).Armed() {
		t.Error("zero config reports armed")
	}
	for _, p := range []TrapPolicy{TrapHalt, TrapRetry, TrapQuietNaN} {
		if !(TrapConfig{Policy: p}).Armed() {
			t.Errorf("policy %v not armed", p)
		}
	}
}
