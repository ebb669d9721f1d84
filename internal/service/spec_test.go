package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestParseJobSpecTrailingWhitespace pins the other side of the
// trailing-data check: whitespace after the spec, such as the newline
// json.Encoder or a text editor leaves, is still one job.
func TestParseJobSpecTrailingWhitespace(t *testing.T) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(tinySweep(0)); err != nil {
		t.Fatal(err)
	}
	body.WriteString(" \t\r\n")
	if _, err := ParseJobSpec(body.Bytes()); err != nil {
		t.Fatalf("spec followed by whitespace rejected: %v", err)
	}
}

// FuzzParseJobSpec feeds arbitrary submission bodies to the admission
// decoder. It must never panic, and whatever it accepts must be a valid job
// whose re-marshalled form — what Store.Create writes as spec.json — parses
// back to the same bytes, so a recovered job runs what was admitted. The
// committed corpus (testdata/fuzz/FuzzParseJobSpec) holds a valid sweep,
// region batch and campaign plus two bodies with trailing data.
func FuzzParseJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseJobSpec(data)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted %q, which does not validate: %v", data, err)
		}
		once, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted %q, which does not marshal: %v", data, err)
		}
		again, err := ParseJobSpec(once)
		if err != nil {
			t.Fatalf("accepted %q, but its marshalled form %s is rejected: %v", data, once, err)
		}
		twice, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("accepted %q: marshal is not a fixed point:\n%s\n%s", data, once, twice)
		}
	})
}
