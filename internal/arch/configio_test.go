package arch

import (
	"bytes"
	"strings"
	"testing"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteConfig(&buf, Default()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadConfig(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != Default() {
		t.Errorf("round trip changed the config:\n%+v\nvs\n%+v", got, Default())
	}
}

func TestReadConfigValidates(t *testing.T) {
	// An inconsistent ALS mix must be rejected at load time.
	bad := strings.Replace(mustJSON(t, Default()), `"totalFUs": 32`, `"totalFUs": 31`, 1)
	if _, err := ReadConfig(strings.NewReader(bad)); err == nil {
		t.Error("inconsistent machine description loaded")
	}
	if _, err := ReadConfig(strings.NewReader("not json")); err == nil {
		t.Error("garbage loaded")
	}
	if _, err := ReadConfig(strings.NewReader(`{"surpriseField": 1}`)); err == nil {
		t.Error("unknown field accepted (typo protection)")
	}
}

func mustJSON(t *testing.T, c Config) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteConfig(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestKnowledgeBaseEvolution is the §4 robustness claim: a revised
// machine description — here the designers doubled the triplet count
// and halved the doublets, changed the cache size, and added taps —
// flows through the whole environment without code changes. (The full
// end-to-end rebuild on the revised machine is exercised in
// internal/jacobi's TestJacobiOnRevisedMachine.)
func TestKnowledgeBaseEvolution(t *testing.T) {
	revised := Default()
	revised.Triplets = 6
	revised.Doublets = 5
	revised.Singlets = 4
	revised.TotalFUs = 32
	revised.CacheBytes = 16 << 10
	revised.SDUTaps = 12
	if err := revised.Validate(); err != nil {
		t.Fatal(err)
	}
	// Serialize through the knowledge-base file and back.
	got, err := ReadConfig(strings.NewReader(mustJSON(t, revised)))
	if err != nil {
		t.Fatal(err)
	}
	inv, err := NewInventory(got)
	if err != nil {
		t.Fatal(err)
	}
	if got := alsCount(inv, Triplet); got != 6 {
		t.Errorf("revised machine has %d triplets", got)
	}
	if len(inv.FUs) != 32 {
		t.Errorf("revised machine has %d units", len(inv.FUs))
	}
}
