package experiment

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"wadc/internal/netmodel"
)

// TestRegimeLinksPinned pins every sample of the estimator figure's calm,
// paper and volatile link sets at the figure's default seed and server
// count: the generator's calibration and draw order must not drift.
func TestRegimeLinksPinned(t *testing.T) {
	want := map[string]string{
		"calm":     "36f9b529d16a87e6",
		"paper":    "5c87d8f69f227a4a",
		"volatile": "3468c42e33700ac5",
	}
	o := Options{}.withDefaults()
	for ri, reg := range estimatorRegimes {
		links := regimeLinks(o.Seed+int64(ri)*1000003, o.Servers, reg.SwitchProb)
		h := fnv.New64a()
		var buf [8]byte
		for a := 0; a <= o.Servers; a++ {
			for b := a + 1; b <= o.Servers; b++ {
				tr := links(netmodel.HostID(a), netmodel.HostID(b))
				h.Write([]byte(tr.Name()))
				for _, v := range tr.Samples() {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(float64(v)))
					h.Write(buf[:])
				}
			}
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want[reg.Name] {
			t.Errorf("%s links digest = %s, want %s", reg.Name, got, want[reg.Name])
		}
	}
}
