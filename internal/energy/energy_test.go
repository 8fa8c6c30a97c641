package energy

import (
	"math"
	"testing"
)

func TestTableIIConstants(t *testing.T) {
	rows := TableII()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	want := []PEOverhead{
		{"MEDAL", 8941.39, 10.57, 36.16},
		{"NEST", 16721.12, 8.12, 24.83},
		{"BEACON", 14090.23, 9.48, 18.97},
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], want[i])
		}
	}
	if BeaconPE() != want[2] {
		t.Error("BeaconPE mismatch")
	}
}

func TestModelValidate(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	m := DefaultModel()
	m.CyclePS = 0
	if m.Validate() == nil {
		t.Error("zero cycle time accepted")
	}
	m = DefaultModel()
	m.LinkPJPerByte = -1
	if m.Validate() == nil {
		t.Error("negative link energy accepted")
	}
}

func TestPEEnergyUnits(t *testing.T) {
	m := DefaultModel()
	// 9.48 mW for 1 second (8e8 cycles at 1.25 ns) = 9.48 mJ = 9.48e9 pJ.
	cycles := int64(8e8)
	got := m.PEComputePJ(cycles)
	want := 9.48e9
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("PEComputePJ(1s) = %g pJ, want %g", got, want)
	}
	// 18.97 uW leakage x 100 PEs for 1 second = 1.897 mJ = 1.897e9 pJ.
	got = m.PELeakagePJ(100, cycles)
	want = 1.897e9
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("PELeakagePJ = %g pJ, want %g", got, want)
	}
}

func TestTransportEnergies(t *testing.T) {
	m := DefaultModel()
	if m.LinkPJ(100) != 100*m.LinkPJPerByte {
		t.Error("LinkPJ broken")
	}
	if m.BusPJ(100) != 100*m.SwitchBusPJPerByte {
		t.Error("BusPJ broken")
	}
	if m.HostPJ(3) != 3*m.HostCrossingPJ {
		t.Error("HostPJ broken")
	}
	if m.DDRChannelPJ(100) != 100*m.DDRChannelPJPerByte {
		t.Error("DDRChannelPJ broken")
	}
}

func TestBreakdown(t *testing.T) {
	b := Breakdown{CommunicationPJ: 30, DRAMPJ: 50, ComputePJ: 20}
	if b.TotalPJ() != 100 {
		t.Errorf("total = %g", b.TotalPJ())
	}
	b.Add(Breakdown{CommunicationPJ: 10, DRAMPJ: 10, ComputePJ: 10})
	if b.TotalPJ() != 130 {
		t.Errorf("after Add total = %g", b.TotalPJ())
	}
}
