package ga

import (
	"reflect"
	"strings"
	"testing"
)

// TestFidelitySchedule: the rung schedule is a pure function of the rung
// count and the sample size — ascending cumulative prefixes halving per
// rung, floored at 16 points, capped and terminated at the full sample,
// duplicates collapsed.
func TestFidelitySchedule(t *testing.T) {
	cases := []struct {
		name string
		f    Fidelity
		n    int
		want []int
	}{
		{"off", Fidelity{}, 164, []int{164}},
		{"one rung", Fidelity{Rungs: 1}, 164, []int{164}},
		{"paper sample eta2", Fidelity{Rungs: 3}, 164, []int{41, 82, 164}},
		{"floor collapses small sample", Fidelity{Rungs: 3}, 8, []int{8}},
		{"deep ladder dedups", Fidelity{Rungs: 6}, 64, []int{16, 32, 64}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.f.Schedule(tc.n)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Schedule(%d) = %v, want %v", tc.n, got, tc.want)
			}
			if got[len(got)-1] != tc.n {
				t.Fatalf("schedule does not end at the full sample: %v", got)
			}
			for i := 1; i < len(got); i++ {
				if got[i] <= got[i-1] {
					t.Fatalf("schedule not strictly ascending: %v", got)
				}
			}
		})
	}
}

// TestFidelityValidate: a negative rung count is rejected, the zero value
// and sensible ladders pass.
func TestFidelityValidate(t *testing.T) {
	for _, f := range []Fidelity{{}, {Rungs: 1}, {Rungs: 3}} {
		if err := f.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", f, err)
		}
	}
	for _, f := range []Fidelity{{Rungs: -1}, {Rungs: -7}} {
		if err := f.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid configuration", f)
		}
	}
}

// TestFidelityRejectsSharedMemo: pruned candidates memoise cohort-dependent
// scaled fitness, which must never feed the cross-search memo tier.
func TestFidelityRejectsSharedMemo(t *testing.T) {
	cfg := PaperConfig(1)
	cfg.Fidelity = Fidelity{Rungs: 3}
	cfg.SharedMemo = &mapMemo{}
	err := cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "shared memo") {
		t.Fatalf("Validate = %v, want shared-memo incompatibility", err)
	}
}
