package addrmap

import "testing"

// FuzzRoundTrip proves each mapping is a bijection between unit-aligned
// in-capacity addresses and coordinates: Unmap(Map(a)) recovers the
// address (wrapped to capacity and truncated to its unit), and
// Map(Unmap(c)) recovers the coordinate. A mapping that loses this
// property would silently alias distinct blocks onto one bank slot.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint8(0), uint8(2), uint8(1))
	f.Add(uint64(0x12345678), uint8(1), uint8(4), uint8(2))
	f.Add(uint64(1<<40-64), uint8(2), uint8(8), uint8(4))
	f.Add(uint64(4096), uint8(2), uint8(1), uint8(16))

	f.Fuzz(func(t *testing.T, addr uint64, which, channels, devices uint8) {
		g := Geometry{
			Channels:          1 << (channels % 4),
			DevicesPerChannel: 1 << (devices % 5),
		}
		mc := mappers[int(which)%len(mappers)]
		name := mc.name
		m, err := mc.build(g)
		if err != nil {
			t.Fatalf("%s over %+v: %v", name, g, err)
		}

		unit := g.UnitBytes()
		want := addr % g.Capacity() / unit * unit
		c := m.Map(addr)
		if got := m.Unmap(c); got != want {
			t.Fatalf("%s: Unmap(Map(%#x)) = %#x, want %#x (geometry %+v, coord %v)",
				name, addr, got, want, g, c)
		}
		if c2 := m.Map(m.Unmap(c)); c2 != c {
			t.Fatalf("%s: Map(Unmap(%v)) = %v (geometry %+v)", name, c, c2, g)
		}
	})
}
