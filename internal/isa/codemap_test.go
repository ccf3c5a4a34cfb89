package isa_test

import (
	"strings"
	"testing"

	"regionmon/internal/isa"
	"regionmon/internal/isa/isatest"
	"regionmon/internal/soak"
	"regionmon/internal/workload"
)

// TestCodeMapMatchesLinearScan checks the code map of every workload
// program and of the soak program against a linear scan, at every
// address from 8 bytes below the text to 8 bytes past it.
func TestCodeMapMatchesLinearScan(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			b, err := workload.ByName(name, 0.002)
			if err != nil {
				t.Fatal(err)
			}
			isatest.CheckCodeMap(t, b.Prog)
		})
	}
	t.Run("soak", func(t *testing.T) {
		prog, _, err := soak.BuildProgram()
		if err != nil {
			t.Fatal(err)
		}
		isatest.CheckCodeMap(t, prog)
	})
}

// TestCodeMapLimits: a procedure at address 0, where idle samples point,
// and text spanning more than the directory covers both fail the build.
func TestCodeMapLimits(t *testing.T) {
	b := isa.NewBuilder(0)
	b.Proc("zero").Code(4, isa.KindALU)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "address 0") {
		t.Errorf("program at address 0: %v", err)
	}
	b = isa.NewBuilder(0x10000)
	b.Proc("near").Code(4, isa.KindALU)
	b.Skip(1 << 33)
	b.Proc("far").Code(4, isa.KindALU)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "spans") {
		t.Errorf("program spanning 8 GiB: %v", err)
	}
}
