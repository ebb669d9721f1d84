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
// region batch and campaign, two bodies with trailing data, and six
// campaigns that each break one bit-true rule (an oversized block, a block
// of one channel use, zero rates, an erasure probability outside [0,1]).
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

// TestStoredSpecJSONStable pins spec.json bodies as the daemon writes them
// (json.Marshal of the admitted JobSpec): each must be admitted and
// re-encode byte for byte, so a job stored by one build recovers under the
// next with the same work and the same file.
func TestStoredSpecJSONStable(t *testing.T) {
	for name, body := range map[string]string{
		"sweep": `{"sweep":{"protocols":["MABC","TDBC","HBC"],"bound":"outer","base":{"PowerDB":10,"GabDB":-7,"GarDB":0,"GbrDB":5},` +
			`"powers_db":[0,5.5,10],"placements":[{"Pos":0.25,"Exponent":3,"GabDB":-1.5},{"Pos":0.75,"Exponent":0,"GabDB":0}],` +
			`"erasures":[{"EpsAR":0.1,"EpsBR":0.2,"EpsAB":0.6}],"workers":2},"timeout_ms":60000}`,
		"region": `{"region_batch":{"scenarios":[{"PowerDB":10,"GabDB":-7,"GarDB":0,"GbrDB":5},{"PowerDB":0,"GabDB":0,"GarDB":3,"GbrDB":3}],` +
			`"curves":[{"Protocol":"MABC","Bound":"inner"},{"Protocol":"HBC","Bound":"outer"}],"workers":1}}`,
		"campaign": `{"campaign":{"specs":[{"fading":{"Scenario":{"PowerDB":10,"GabDB":-7,"GarDB":0,"GbrDB":5},"Protocols":["DT","TDBC"],` +
			`"Target":{"Ra":0.5,"Rb":0.5}},"trials":20,"seed":7},{"bit_true_tdbc":{"Links":{"EpsAR":0.2,"EpsBR":0.1,"EpsAB":0.6},` +
			`"Rates":{"Ra":0.3,"Rb":0.3},"Durations":null,"BlockLength":400},"trials":2,"seed":1}],"workers":2}}`,
	} {
		t.Run(name, func(t *testing.T) {
			spec, err := ParseJobSpec([]byte(body))
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != body {
				t.Errorf("re-encoded spec.json differs:\n got %s\nwant %s", got, body)
			}
		})
	}
}
