package bicoop

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"bicoop/internal/protocols"
)

func TestParseProtocol(t *testing.T) {
	for _, p := range AllProtocols() {
		got, err := ParseProtocol(p.String())
		if err != nil || got != p {
			t.Errorf("ParseProtocol(%q) = (%v, %v), want (%v, nil)", p.String(), got, err, p)
		}
		lower, err := ParseProtocol("mabc")
		if err != nil || lower != MABC {
			t.Errorf("ParseProtocol is not case-insensitive: (%v, %v)", lower, err)
		}
	}
	if _, err := ParseProtocol("FDMA"); !errors.Is(err, ErrUnknownProtocol) {
		t.Errorf("unknown name: err = %v, want ErrUnknownProtocol", err)
	}
}

func TestParseBound(t *testing.T) {
	for _, b := range []Bound{Inner, Outer} {
		got, err := ParseBound(b.String())
		if err != nil || got != b {
			t.Errorf("ParseBound(%q) = (%v, %v), want (%v, nil)", b.String(), got, err, b)
		}
	}
	if got, err := ParseBound("OUTER"); err != nil || got != Outer {
		t.Errorf("ParseBound is not case-insensitive: (%v, %v)", got, err)
	}
	if _, err := ParseBound("middle"); !errors.Is(err, ErrUnknownBound) {
		t.Errorf("unknown name: err = %v, want ErrUnknownBound", err)
	}
}

func TestEnumJSONRoundTrip(t *testing.T) {
	// Protocol and Bound must survive a JSON round trip as names, the form
	// bccd job specs are written and persisted in.
	type wire struct {
		Protocols []Protocol
		Bound     Bound
	}
	in := wire{Protocols: AllProtocols(), Bound: Outer}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"Protocols":["DT","Naive4","MABC","TDBC","HBC"],"Bound":"outer"}`
	if string(data) != want {
		t.Errorf("marshal = %s, want %s", data, want)
	}
	var out wire
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Protocols) != len(in.Protocols) || out.Bound != in.Bound {
		t.Errorf("round trip lost data: %+v", out)
	}
	for i := range out.Protocols {
		if out.Protocols[i] != in.Protocols[i] {
			t.Errorf("Protocols[%d] = %v, want %v", i, out.Protocols[i], in.Protocols[i])
		}
	}
}

func TestEnumJSONRejectsUnknown(t *testing.T) {
	var p Protocol
	if err := json.Unmarshal([]byte(`"FDMA"`), &p); !errors.Is(err, ErrUnknownProtocol) {
		t.Errorf("unknown protocol name: err = %v, want ErrUnknownProtocol", err)
	}
	var b Bound
	if err := json.Unmarshal([]byte(`"middle"`), &b); !errors.Is(err, ErrUnknownBound) {
		t.Errorf("unknown bound name: err = %v, want ErrUnknownBound", err)
	}
	if _, err := json.Marshal(Protocol(99)); err == nil {
		t.Error("marshaling an unknown protocol must fail, not encode lossily")
	}
	if _, err := json.Marshal(Bound(99)); err == nil {
		t.Error("marshaling an unknown bound must fail, not encode lossily")
	}
}

// TestSpecStructJSON pins the wire form of the spec structs that bccd job
// specs carry: field names and order, enum names, and a lossless round
// trip. A stored spec.json must decode and re-encode to the same bytes
// whatever package defines the type.
func TestSpecStructJSON(t *testing.T) {
	tests := []struct {
		name string
		in   any
		out  any // a pointer to a zero value of in's type
		want string
	}{
		{"Scenario", Scenario{PowerDB: 10, GabDB: -7, GarDB: 0, GbrDB: 5.5}, new(Scenario),
			`{"PowerDB":10,"GabDB":-7,"GarDB":0,"GbrDB":5.5}`},
		{"RelayPlacement", RelayPlacement{Pos: 0.25, Exponent: 3, GabDB: -1.5}, new(RelayPlacement),
			`{"Pos":0.25,"Exponent":3,"GabDB":-1.5}`},
		{"ErasureLinks", ErasureLinks{EpsAR: 0.1, EpsBR: 0.2, EpsAB: 0.6}, new(ErasureLinks),
			`{"EpsAR":0.1,"EpsBR":0.2,"EpsAB":0.6}`},
		{"RegionCurve", RegionCurve{Protocol: HBC, Bound: Outer}, new(RegionCurve),
			`{"Protocol":"HBC","Bound":"outer"}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			data, err := json.Marshal(tt.in)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != tt.want {
				t.Errorf("marshal = %s, want %s", data, tt.want)
			}
			if err := json.Unmarshal(data, tt.out); err != nil {
				t.Fatal(err)
			}
			if got := reflect.ValueOf(tt.out).Elem().Interface(); got != tt.in {
				t.Errorf("round trip = %+v, want %+v", got, tt.in)
			}
		})
	}
}

// TestFacadeSentinelsAreInternal pins that each facade enum and scenario
// sentinel is the one value the internal packages raise, so errors.Is
// matches an error from any layer without re-wrapping.
func TestFacadeSentinelsAreInternal(t *testing.T) {
	_, compileErr := protocols.Compile(Protocol(42), Inner, protocols.LinkInfos{})
	_, boundErr := protocols.Compile(MABC, Bound(42), protocols.LinkInfos{})
	_, linkErr := protocols.LinkInfosFromScenario(protocols.Scenario{P: -1})
	tests := []struct {
		name     string
		facade   error
		internal error
		raised   error
	}{
		{"ErrUnknownProtocol", ErrUnknownProtocol, protocols.ErrUnknownProtocol, compileErr},
		{"ErrUnknownBound", ErrUnknownBound, protocols.ErrUnknownBound, boundErr},
		{"ErrInvalidScenario", ErrInvalidScenario, protocols.ErrInvalidScenario, linkErr},
		{"ErrInvalidScenario (dB)", ErrInvalidScenario, protocols.ErrInvalidScenario, Scenario{GabDB: math.NaN()}.Validate()},
	}
	for _, tt := range tests {
		if tt.facade != tt.internal {
			t.Errorf("%s: facade sentinel %v is not the internal one", tt.name, tt.facade)
		}
		if !errors.Is(tt.raised, tt.facade) {
			t.Errorf("%s: internal error %v does not match the facade sentinel", tt.name, tt.raised)
		}
	}
}
