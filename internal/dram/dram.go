// Package dram models Direct Rambus DRAM (DRDRAM) devices: their
// geometry, command timing, and per-bank row-buffer state, including
// the shared sense-amplifier organization that forbids adjacent banks
// from being active simultaneously.
//
// The model follows the 256-Mbit device described in the paper: 32
// banks of 1 MB, each with 512 rows of 2 KB; the smallest addressable
// unit is a 16-byte dualoct. A full access issues up to three commands:
// precharge (PRER) on the row bus, activate (ACT) on the row bus, and
// read (RD) or write (WR) on the column bus.
package dram

import (
	"fmt"

	"memsim/internal/sim"
)

// Standard 256-Mbit DRDRAM geometry constants.
const (
	BanksPerDevice = 32
	RowsPerBank    = 512
	RowBytes       = 2048 // per physical channel
	DualoctBytes   = 16
	ColumnsPerRow  = RowBytes / DualoctBytes // 128
	DeviceBytes    = BanksPerDevice * RowsPerBank * RowBytes
)

// Timing holds the command latencies of a DRDRAM part. All values are
// simulated durations.
//
// A row-buffer hit costs CAC + Packet (RD to end of data); an access to
// a precharged bank costs ACT + CAC + Packet; a row-buffer miss costs
// PRER + ACT + CAC + Packet.
type Timing struct {
	Name   string
	Packet sim.Time // duration of one command or data packet on a bus
	PRER   sim.Time // precharge command latency (bank precharged after this)
	ACT    sim.Time // activate latency (row open in sense amps after this)
	CAC    sim.Time // RD/WR command to start of data transfer
}

// RowHitLatency is the contentionless latency of an access that hits in
// the row buffer.
func (t Timing) RowHitLatency() sim.Time { return t.CAC + t.Packet }

// PrechargedLatency is the contentionless latency of an access to a
// precharged (closed) bank.
func (t Timing) PrechargedLatency() sim.Time { return t.ACT + t.CAC + t.Packet }

// RowMissLatency is the contentionless latency of an access that misses
// in the row buffer (open at a different row).
func (t Timing) RowMissLatency() sim.Time { return t.PRER + t.ACT + t.CAC + t.Packet }

// Published and hypothetical DRDRAM parts used in the paper's
// sensitivity study (Section 4.6). Part800x40 is the 800-40 256-Mbit
// part simulated throughout the paper: a contentionless dualoct access
// that misses in the row buffer takes 77.5 ns, an access to a
// precharged bank 57.5 ns, and a page hit 40 ns.
var (
	Part800x40 = Timing{
		Name:   "800-40",
		Packet: 10 * sim.Nanosecond,
		PRER:   20 * sim.Nanosecond,
		ACT:    17500 * sim.Picosecond,
		CAC:    30 * sim.Nanosecond,
	}

	// Part800x50 approximates the published 800-50 part: same channel
	// rate, slower core. The paper does not reprint its parameters; we
	// scale the access path to a 50 ns page hit.
	Part800x50 = Timing{
		Name:   "800-50",
		Packet: 10 * sim.Nanosecond,
		PRER:   25 * sim.Nanosecond,
		ACT:    22500 * sim.Picosecond,
		CAC:    40 * sim.Nanosecond,
	}

	// Part800x34 is the paper's hypothetical fast part, obtained from
	// published 45-600 latencies without adjusting cycle time: a 34 ns
	// page hit.
	Part800x34 = Timing{
		Name:   "800-34",
		Packet: 10 * sim.Nanosecond,
		PRER:   17 * sim.Nanosecond,
		ACT:    15 * sim.Nanosecond,
		CAC:    24 * sim.Nanosecond,
	}
)

// Parts lists the available timing parts by name.
var Parts = map[string]Timing{
	Part800x40.Name: Part800x40,
	Part800x50.Name: Part800x50,
	Part800x34.Name: Part800x34,
}

// PartByName returns the named timing part.
func PartByName(name string) (Timing, error) {
	t, ok := Parts[name]
	if !ok {
		return Timing{}, fmt.Errorf("dram: unknown part %q", name)
	}
	return t, nil
}

const closedRow = -1

// Device models the bank and row-buffer state of one DRDRAM device (or
// of a lock-step gang of devices, one per physical channel, when
// channels are simply interleaved into a single logical channel).
//
// Row buffers are split in half and shared between adjacent banks
// (bank n's upper half is bank n+1's lower half), so only one of a
// pair of adjacent banks may be active at a time. Activating a bank
// implicitly requires its active neighbors to be precharged first.
type Device struct {
	banks []int32 // open row per bank, or closedRow
}

// NewDevice returns a device with all banks precharged.
func NewDevice() *Device {
	d := &Device{banks: make([]int32, BanksPerDevice)}
	for i := range d.banks {
		d.banks[i] = closedRow
	}
	return d
}

// OpenRow reports the row currently held in the bank's sense amps, and
// whether the bank is active.
func (d *Device) OpenRow(bank int) (row int, open bool) {
	r := d.banks[bank]
	return int(r), r != closedRow
}

// IsOpen reports whether the bank currently holds row in its row buffer.
func (d *Device) IsOpen(bank, row int) bool {
	return d.banks[bank] == int32(row)
}

// Neighbors lists the at most two active adjacent banks an activate
// must precharge, lower bank first. It is a value, so reporting it
// allocates nothing.
type Neighbors struct {
	banks [2]int
	n     int
}

// Len reports how many neighbors need a precharge.
func (ns Neighbors) Len() int { return ns.n }

// At returns the i-th neighbor bank, 0 <= i < Len().
func (ns Neighbors) At(i int) int { return ns.banks[:ns.n][i] }

func (ns *Neighbors) add(bank int) {
	ns.banks[ns.n] = bank
	ns.n++
}

// Precharges reports which precharge operations are required before
// activating row in bank: the bank itself if it is open at another row,
// and any active adjacent bank (shared sense amps). If the bank is
// already open at the requested row, no operations are required.
func (d *Device) Precharges(bank, row int) (self bool, neighbors Neighbors) {
	if d.IsOpen(bank, row) {
		return false, neighbors
	}
	self = d.banks[bank] != closedRow
	if bank > 0 && d.banks[bank-1] != closedRow {
		neighbors.add(bank - 1)
	}
	if bank < len(d.banks)-1 && d.banks[bank+1] != closedRow {
		neighbors.add(bank + 1)
	}
	return self, neighbors
}

// Activate opens row in bank, precharging the bank and its active
// neighbors as a side effect (the caller is responsible for charging
// the corresponding command latencies).
func (d *Device) Activate(bank, row int) {
	if row < 0 || row >= RowsPerBank {
		panic(fmt.Sprintf("dram: activate row %d out of range", row))
	}
	if bank > 0 {
		d.banks[bank-1] = closedRow
	}
	if bank < len(d.banks)-1 {
		d.banks[bank+1] = closedRow
	}
	d.banks[bank] = int32(row)
}

// Precharge closes the bank.
func (d *Device) Precharge(bank int) { d.banks[bank] = closedRow }

// ActiveBanks reports how many banks are currently active. Because of
// sense-amp sharing this can never exceed half the banks (rounded up).
func (d *Device) ActiveBanks() int {
	n := 0
	for _, r := range d.banks {
		if r != closedRow {
			n++
		}
	}
	return n
}
