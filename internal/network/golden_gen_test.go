package network

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"syncron/internal/sim"
)

// goldenSizes are the message sizes of the AllToAll golden: the sizes the
// machine sends plus a 64-byte line.
var goldenSizes = []int{16, 18, 19, 64, 72}

// goldenTrace drives net through a deterministic pseudo-random mix of
// same-unit and cross-unit transfers on 4 units, drawing each message size
// from sizes, and returns one line per call: "src dst port bytes t arrival".
func goldenTrace(net *Network, sizes []int) string {
	const units = 4
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	var b strings.Builder
	t := sim.Time(0)
	for i := 0; i < 600; i++ {
		src := next(units)
		dst := next(units)
		var port int
		switch next(3) {
		case 0:
			port = PortSE
		case 1:
			port = PortMemory
		default:
			port = PortCore(next(15))
		}
		bytes := sizes[next(len(sizes))]
		t += sim.Time(next(2000))
		arr := net.Transfer(t, src, dst, port, bytes)
		fmt.Fprintf(&b, "%d %d %d %d %d %d\n", src, dst, port, bytes, int64(t), int64(arr))
	}
	fmt.Fprintf(&b, "intra %d inter %d\n", net.IntraBits(), net.Stats.InterBits.Value())
	return b.String()
}

const goldenPath = "testdata/transfer_alltoall.golden"

// TestAllToAllGoldenTrace locks the full-point-to-point timing model: the
// route-based AllToAll topology must reproduce the pre-refactor Transfer
// arrival times bit for bit. Regenerate with UPDATE_GOLDEN=1 only
// for a deliberate, documented timing-model change.
func TestAllToAllGoldenTrace(t *testing.T) {
	checkGolden(t, goldenPath, goldenTrace(newNet(4), goldenSizes))
}

// variantConfig differs from DefaultConfig in every latency and bandwidth
// parameter: a slower clock, narrower flits, more hops, a shorter link
// latency and an odd link bandwidth whose serialization times truncate.
func variantConfig() Config {
	cfg := DefaultConfig(sim.NewClock(1200))
	cfg.HopCycles = 2
	cfg.Hops = 3
	cfg.ArbiterCycles = 2
	cfg.FlitBytes = 8
	cfg.LinkLatency = 25 * sim.Nanosecond
	cfg.LinkFixedCycles = 7
	cfg.LinkBytesPerSec = 9_999_999_937
	return cfg
}

const variantsGoldenPath = "testdata/transfer_variants.golden"

// TestTransferVariantsGoldenTrace locks the timing model beyond the default
// AllToAll case: every other topology under DefaultConfig, and every
// topology under variantConfig, with message sizes well past the machine's
// own (200 and 4096 bytes) mixed in. Regenerate with UPDATE_GOLDEN=1 only
// for a deliberate, documented timing-model change.
func TestTransferVariantsGoldenTrace(t *testing.T) {
	sizes := append(append([]int(nil), goldenSizes...), 200, 4096)
	var b strings.Builder
	for _, variant := range []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig(sim.NewClock(2500))},
		{"variant", variantConfig()},
	} {
		for _, kind := range Kinds() {
			if kind == KindAllToAll && variant.name == "default" {
				continue // transfer_alltoall.golden
			}
			fmt.Fprintf(&b, "== %s %s\n", kind, variant.name)
			b.WriteString(goldenTrace(New(variant.cfg, MustBuild(kind, 4)), sizes))
		}
	}
	checkGolden(t, variantsGoldenPath, b.String())
}

// checkGolden compares got with the golden file at path, or rewrites the
// file when UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden updated")
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("transfer trace deviates from %s (len got %d, want %d)", path, len(got), len(want))
	}
}
