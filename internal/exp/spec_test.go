package exp

// Boundary checks for the wire-encodable cell spec: Validate rejects every
// spec a replay could not run, and a spec it accepts builds its replay
// configuration without panicking.

import (
	"encoding/json"
	"testing"
)

func TestCellSpecValidateKnobs(t *testing.T) {
	for _, tc := range []struct {
		spec  CellSpec
		valid bool
	}{
		{CellSpec{StoreBufDepth: 8, MSHRs: 4}, true},
		{CellSpec{StoreBufDepth: -1}, false},
		{CellSpec{MSHRs: -1}, false},
		{CellSpec{BTBEntries: 2048}, true},
		{CellSpec{BTBEntries: -4}, false},
		{CellSpec{BTBEntries: 6}, false},  // not a multiple of 4 ways
		{CellSpec{BTBEntries: 12}, false}, // 3 sets: not a power of two
		{CellSpec{BTBEntries: 2 * maxBTBEntries}, false},
		{CellSpec{BTBEntries: 64, PerfectBP: true}, false},
	} {
		s := tc.spec
		s.Label, s.Arch, s.Model, s.Window = "x", "DS", "RC", 64
		if err := s.Validate(); (err == nil) != tc.valid {
			t.Errorf("%+v: Validate() = %v, want valid=%t", s, err, tc.valid)
		}
	}
}

// The knobs are omitempty, so a spec that leaves them unset keeps the
// serialized form — and therefore the result-cache key — it always had.
func TestCellSpecWireFormStable(t *testing.T) {
	js, err := json.Marshal(Figure4Specs()[len(Windows)+1])
	if err != nil {
		t.Fatal(err)
	}
	want := `{"label":"PBP+ND-16","arch":"DS","model":"RC","window":16,"perfect_bp":true,"ignore_data_deps":true}`
	if string(js) != want {
		t.Errorf("spec JSON = %s, want %s", js, want)
	}
}

// FuzzCellSpec feeds arbitrary JSON through the checks a dist worker applies
// to a wire spec: whatever Validate accepts must build its configuration
// (including a fresh BTB) without panicking.
func FuzzCellSpec(f *testing.F) {
	for _, specs := range [][]CellSpec{Figure3Specs(), Figure4Specs(), Issue4Specs(), SCPrefetchSpecs()} {
		for _, s := range specs {
			js, err := json.Marshal(s)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(js)
		}
	}
	f.Add([]byte(`{"label":"SB1","arch":"DS","model":"RC","window":64,"store_buf_depth":1}`))
	f.Add([]byte(`{"label":"MSHR2","arch":"DS","model":"RC","window":64,"mshrs":2}`))
	f.Add([]byte(`{"label":"BTB64","arch":"DS","model":"RC","window":128,"btb_entries":64}`))
	// Geometries NewBTB rejects, and negative counts.
	f.Add([]byte(`{"label":"BTB12","arch":"DS","model":"RC","window":128,"btb_entries":12}`))
	f.Add([]byte(`{"label":"BTB-4","arch":"DS","model":"RC","window":128,"btb_entries":-4}`))
	f.Add([]byte(`{"label":"MSHR-1","arch":"DS","model":"RC","window":64,"mshrs":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s CellSpec
		if json.Unmarshal(data, &s) != nil || s.Validate() != nil {
			return
		}
		cfg := s.config(new(Options))
		if s.BTBEntries != 0 && cfg.Predictor == nil {
			t.Fatalf("%+v: no BTB built", s)
		}
	})
}
