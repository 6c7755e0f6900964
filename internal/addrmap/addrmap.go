// Package addrmap maps physical processor addresses to Direct Rambus
// coordinates (device, bank, row, column) for a simply interleaved
// multi-channel memory system.
//
// The paper (Section 3.4, Figure 3) shows that this mapping strongly
// influences row-buffer hit rates and bank conflicts. Three mappings
// are provided:
//
//   - Base: the straightforward mapping of Figure 3a. Contiguous
//     addresses fill a row, then stripe across devices and banks, with
//     the row index in the top bits. Cache-index aliasing makes a miss
//     and its writeback conflict in the same bank.
//   - Swap: the previously described alternative (Zurawski et al.; Wong
//     and Baer) that derives the row index from low-order bits so
//     cache-aliased blocks land in different banks, at the cost of
//     reduced spatial locality within a row.
//   - XOR: the paper's improved mapping of Figure 3b. The initial
//     device/bank index is XORed with the low bits of the row index,
//     and the low-order bank bit is rotated to the most-significant
//     position so consecutive stripes touch all even banks before any
//     odd bank, reducing adjacent-bank sense-amp conflicts.
package addrmap

import (
	"fmt"
	"math/bits"

	"memsim/internal/dram"
)

// Geometry describes the memory system shape visible to the mapper. The
// n physical channels are simply interleaved, i.e. treated as a single
// logical channel of n times the width; one "logical column" moves n
// dualocts (16n bytes).
type Geometry struct {
	Channels          int // physical channels ganged into one logical channel
	DevicesPerChannel int // DRDRAM devices on each physical channel
}

// Validate checks that the geometry is realizable (power-of-two fields,
// at least one channel and device).
func (g Geometry) Validate() error {
	if g.Channels < 1 || bits.OnesCount(uint(g.Channels)) != 1 {
		return fmt.Errorf("addrmap: channels must be a power of two, got %d", g.Channels)
	}
	if g.DevicesPerChannel < 1 || bits.OnesCount(uint(g.DevicesPerChannel)) != 1 {
		return fmt.Errorf("addrmap: devices per channel must be a power of two, got %d", g.DevicesPerChannel)
	}
	return nil
}

// UnitBytes is the number of bytes moved per logical column access:
// one dualoct per physical channel.
func (g Geometry) UnitBytes() uint64 { return dram.DualoctBytes * uint64(g.Channels) }

// LogicalRowBytes is the size of one row across the ganged channels.
func (g Geometry) LogicalRowBytes() uint64 { return dram.RowBytes * uint64(g.Channels) }

// Capacity is the total physical memory in bytes.
func (g Geometry) Capacity() uint64 {
	return uint64(g.Channels) * uint64(g.DevicesPerChannel) * dram.DeviceBytes
}

// PeakBandwidth is the peak transfer rate in bytes per second
// (1.6 GB/s per physical channel).
func (g Geometry) PeakBandwidth() float64 { return 1.6e9 * float64(g.Channels) }

func (g Geometry) devBits() int  { return bits.TrailingZeros(uint(g.DevicesPerChannel)) }
func (g Geometry) bankBits() int { return bits.TrailingZeros(uint(dram.BanksPerDevice)) } // 5
func (g Geometry) rowBits() int  { return bits.TrailingZeros(uint(dram.RowsPerBank)) }    // 9
func (g Geometry) colBits() int  { return bits.TrailingZeros(uint(dram.ColumnsPerRow)) }  // 7

// Coord locates one logical column in the Rambus memory space. Device
// and bank identify a position replicated across the lock-step ganged
// channels; Col is the dualoct-group index within the row.
type Coord struct {
	Device int
	Bank   int
	Row    int
	Col    int
}

// String formats the coordinate for diagnostics.
func (c Coord) String() string {
	return fmt.Sprintf("dev%d/bank%d/row%d/col%d", c.Device, c.Bank, c.Row, c.Col)
}

// SameRow reports whether two coordinates fall in the same open-row
// unit (device, bank, and row all equal).
func (c Coord) SameRow(o Coord) bool {
	return c.Device == o.Device && c.Bank == o.Bank && c.Row == o.Row
}

// Mapper translates physical addresses to Rambus coordinates.
type Mapper interface {
	// Name identifies the mapping policy.
	Name() string
	// Map returns the coordinate of the logical column containing
	// addr. Addresses beyond capacity wrap.
	Map(addr uint64) Coord
	// Unmap is the exact inverse of Map: it returns the unit-aligned
	// physical address of the logical column at the coordinate, so
	// Map(Unmap(c)) == c and Unmap(Map(a)) == a for unit-aligned
	// in-capacity a. Diagnostics use it to name the address behind a
	// misbehaving bank; the fuzz harness proves the bijection.
	Unmap(c Coord) uint64
	// Geometry reports the memory system shape.
	Geometry() Geometry
}

// fields is the common address decomposition shared by all mappers:
// the low bits select the logical column, the remainder is split by
// each policy.
type fields struct {
	col  int
	rest uint64 // bits above the column field, already wrapped to capacity
}

func split(g Geometry, addr uint64) fields {
	addr %= g.Capacity()
	unit := g.UnitBytes()
	colIdx := addr / unit
	return fields{
		col:  int(colIdx % dram.ColumnsPerRow),
		rest: colIdx / dram.ColumnsPerRow,
	}
}

// join is the inverse of split: it reassembles the unit-aligned
// physical address from the column field and the policy-packed rest.
func join(g Geometry, col int, rest uint64) uint64 {
	colIdx := rest*dram.ColumnsPerRow + uint64(col&(dram.ColumnsPerRow-1))
	return colIdx * g.UnitBytes() % g.Capacity()
}

// wrap masks coordinate fields to their legal ranges so Unmap is total
// over arbitrary Coord values, mirroring Map's wrapping of addresses.
func wrap(g Geometry, c Coord) Coord {
	c.Device &= g.DevicesPerChannel - 1
	c.Bank &= dram.BanksPerDevice - 1
	c.Row &= dram.RowsPerBank - 1
	c.Col &= dram.ColumnsPerRow - 1
	return c
}

// BaseMapper implements the Figure 3a mapping: from LSB upward,
// column, device, bank, row.
type BaseMapper struct{ g Geometry }

// NewBase returns the base mapping for the geometry.
func NewBase(g Geometry) (*BaseMapper, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &BaseMapper{g: g}, nil
}

// Name implements Mapper.
func (m *BaseMapper) Name() string { return "base" }

// Geometry implements Mapper.
func (m *BaseMapper) Geometry() Geometry { return m.g }

// Map implements Mapper.
func (m *BaseMapper) Map(addr uint64) Coord {
	f := split(m.g, addr)
	rest := f.rest
	dev := int(rest & uint64(m.g.DevicesPerChannel-1))
	rest >>= m.g.devBits()
	bank := int(rest & (dram.BanksPerDevice - 1))
	rest >>= m.g.bankBits()
	row := int(rest & (dram.RowsPerBank - 1))
	return Coord{Device: dev, Bank: bank, Row: row, Col: f.col}
}

// Unmap implements Mapper.
func (m *BaseMapper) Unmap(c Coord) uint64 {
	c = wrap(m.g, c)
	rest := uint64(c.Device) |
		uint64(c.Bank)<<m.g.devBits() |
		uint64(c.Row)<<(m.g.devBits()+m.g.bankBits())
	return join(m.g, c.Col, rest)
}

// SwapMapper implements the previously published alternative: the row
// index comes from the bits just above the column, and the device/bank
// from the top bits, so blocks that alias in the cache index map to
// different banks instead of different rows of the same bank.
type SwapMapper struct{ g Geometry }

// NewSwap returns the row/bank-swapped mapping for the geometry.
func NewSwap(g Geometry) (*SwapMapper, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &SwapMapper{g: g}, nil
}

// Name implements Mapper.
func (m *SwapMapper) Name() string { return "swap" }

// Geometry implements Mapper.
func (m *SwapMapper) Geometry() Geometry { return m.g }

// Map implements Mapper.
func (m *SwapMapper) Map(addr uint64) Coord {
	f := split(m.g, addr)
	rest := f.rest
	dev := int(rest & uint64(m.g.DevicesPerChannel-1))
	rest >>= m.g.devBits()
	bank := int(rest & (dram.BanksPerDevice - 1))
	rest >>= m.g.bankBits()
	row := int(rest & (dram.RowsPerBank - 1))
	// Exchange the column field with the low-order row bits: the row is
	// now largely determined by cache-index bits, so a miss and its
	// writeback (same cache set, different tag) land in the same row of
	// the same bank — a row-buffer hit instead of a bank conflict. The
	// cost is that consecutive addresses walk rows instead of columns,
	// reducing spatial locality within a row.
	col := row & (dram.ColumnsPerRow - 1)
	row = f.col | (row &^ (dram.ColumnsPerRow - 1))
	return Coord{Device: dev, Bank: bank, Row: row, Col: col}
}

// Unmap implements Mapper. It undoes the row/column exchange: the
// stored row field is the coordinate's column plus the row's high bits,
// and the stored column field is the coordinate row's low bits.
func (m *SwapMapper) Unmap(c Coord) uint64 {
	c = wrap(m.g, c)
	rowStored := (c.Row &^ (dram.ColumnsPerRow - 1)) | c.Col
	col := c.Row & (dram.ColumnsPerRow - 1)
	rest := uint64(c.Device) |
		uint64(c.Bank)<<m.g.devBits() |
		uint64(rowStored)<<(m.g.devBits()+m.g.bankBits())
	return join(m.g, col, rest)
}

// XORMapper implements the paper's improved mapping (Figure 3b): the
// initial device/bank field is XORed with the low-order row bits,
// "randomizing" bank order across cache sets while preserving
// contiguous-address striping; then the low-order bank bit is moved to
// the most significant position of the bank index, striping addresses
// across all even banks before any odd bank to reduce adjacent-bank
// sense-amp conflicts.
type XORMapper struct{ g Geometry }

// NewXOR returns the improved XOR mapping for the geometry.
func NewXOR(g Geometry) (*XORMapper, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &XORMapper{g: g}, nil
}

// Name implements Mapper.
func (m *XORMapper) Name() string { return "xor" }

// Geometry implements Mapper.
func (m *XORMapper) Geometry() Geometry { return m.g }

// Map implements Mapper.
func (m *XORMapper) Map(addr uint64) Coord {
	f := split(m.g, addr)
	rest := f.rest
	db := m.g.devBits()
	k := db + m.g.bankBits()
	devbank := rest & ((1 << k) - 1)
	rest >>= k
	row := int(rest & (dram.RowsPerBank - 1))

	devbank ^= uint64(row) & ((1 << k) - 1)
	dev := int(devbank & uint64(m.g.DevicesPerChannel-1))
	bank5 := int(devbank >> db) // 5-bit bank field as stored in the address
	// The low-order bank index bit occupies the most significant
	// position of the field (Figure 3b: "bank[0] | bank[4:1]"), so as
	// addresses increase the stripe visits all even banks before any
	// odd bank: bank[4:1] comes from the field's low four bits and
	// bank[0] from its top bit.
	bank := ((bank5 & 0xf) << 1) | (bank5 >> 4)
	return Coord{Device: dev, Bank: bank, Row: row, Col: f.col}
}

// Unmap implements Mapper. The bank-bit rotation and the row XOR are
// both involutions given the row, so the stored device/bank field is
// recovered by reversing the rotation and reapplying the XOR.
func (m *XORMapper) Unmap(c Coord) uint64 {
	c = wrap(m.g, c)
	db := m.g.devBits()
	k := db + m.g.bankBits()
	bank5 := ((c.Bank >> 1) & 0xf) | ((c.Bank & 1) << 4)
	devbank := uint64(c.Device) | uint64(bank5)<<db
	devbank ^= uint64(c.Row) & ((1 << k) - 1)
	rest := devbank | uint64(c.Row)<<k
	return join(m.g, c.Col, rest)
}

// Span is a run of contiguous logical columns sharing one (device,
// bank, row) coordinate. Block transfers decompose into spans.
type Span struct {
	Coord Coord
	NCols int // number of logical columns (data packets) in the run
}

// Spans decomposes the byte range [addr, addr+size) into coordinate
// spans in address order. size is rounded up to whole logical columns;
// a zero size yields no spans. The count-based loop is immune to
// address wraparound near the top of the address space (addresses wrap
// into capacity through Map).
func Spans(m Mapper, addr, size uint64) []Span { return AppendSpans(nil, m, addr, size) }

// AppendSpans is Spans appending into dst, so a caller that keeps one
// buffer across transfers decomposes them without allocating.
func AppendSpans(dst []Span, m Mapper, addr, size uint64) []Span {
	if size == 0 {
		return dst
	}
	g := m.Geometry()
	unit := g.UnitBytes()
	start := addr / unit * unit
	units := (addr + size - start + unit - 1) / unit
	if units == 0 {
		// addr+size wrapped uint64; cover at least the first unit.
		units = (size + unit - 1) / unit
	}
	first := len(dst)
	for i := uint64(0); i < units; i++ {
		c := m.Map(start + i*unit)
		n := len(dst)
		if n > first && dst[n-1].Coord.SameRow(c) && dst[n-1].Coord.Col+dst[n-1].NCols == c.Col {
			dst[n-1].NCols++
			continue
		}
		dst = append(dst, Span{Coord: c, NCols: 1})
	}
	return dst
}

// Stripe interleaves blocks of block bytes across n independent
// channels: it returns the channel owning addr's block and addr
// compacted into that channel's private address space. With n <= 1
// every address belongs to channel 0 unchanged.
func Stripe(addr, block uint64, n int) (ch int, local uint64) {
	if n <= 1 {
		return 0, addr
	}
	nb := uint64(n)
	return int(addr / block % nb), addr/block/nb*block + addr%block
}
