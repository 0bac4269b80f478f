package nvm

import "fmt"

// Geometry describes the physical organization of an SSD's NVM complex.
// The paper's evaluated devices (§4.1) use 8 channels, 64 packages and 128
// dies: 8 packages per channel, 2 dies per package.
type Geometry struct {
	Channels           int
	PackagesPerChannel int
	DiesPerPackage     int
	BlocksPerPlane     int
}

// PaperGeometry returns the SSD organization used throughout the paper's
// evaluation: 8 channels, 64 NVM packages, 128 NVM dies.
func PaperGeometry() Geometry {
	return Geometry{Channels: 8, PackagesPerChannel: 8, DiesPerPackage: 2, BlocksPerPlane: 2048}
}

// Validate reports a descriptive error for impossible organizations.
func (g Geometry) Validate() error {
	if g.Channels <= 0 || g.PackagesPerChannel <= 0 || g.DiesPerPackage <= 0 || g.BlocksPerPlane <= 0 {
		return fmt.Errorf("nvm: geometry fields must be positive: %+v", g)
	}
	return nil
}

// DiesPerChannel returns the number of dies sharing one channel bus.
func (g Geometry) DiesPerChannel() int { return g.PackagesPerChannel * g.DiesPerPackage }

// Packages returns the total package count.
func (g Geometry) Packages() int { return g.Channels * g.PackagesPerChannel }

// Dies returns the total die count.
func (g Geometry) Dies() int { return g.Channels * g.DiesPerChannel() }

// Capacity returns the device capacity in bytes for the given medium.
func (g Geometry) Capacity(cell CellParams) int64 {
	return int64(g.Dies()*cell.Planes*g.BlocksPerPlane) * cell.BlockSize()
}

// Pages returns the total number of interface pages the device exposes.
func (g Geometry) Pages(cell CellParams) int64 {
	return int64(g.Dies()*cell.Planes*g.BlocksPerPlane) * int64(cell.PagesPerBlock)
}

// EraseBlock names the eraseblock holding physical page ppn under the
// row-first layout the FTL, the direct translator, the fault injector and
// the device share: a row stripes one page over every die-plane, and
// cell.PagesPerBlock consecutive rows form one eraseblock per die-plane.
func (g Geometry) EraseBlock(ppn int64, cell CellParams) int64 {
	row := int64(g.Dies() * max(cell.Planes, 1))
	return ppn/(row*int64(cell.PagesPerBlock))*row + ppn%row
}

// Location identifies one physical page's resources: the channel bus it
// transfers over, the die it occupies (indexed within the channel) and the
// plane inside that die. Package is derived, not stored.
type Location struct {
	Channel int
	Die     int // index within the channel: [0, DiesPerChannel)
	Plane   int
}

// Package returns the package (within the channel) a die index belongs to.
// Dies are distributed round-robin over the channel's packages so that
// consecutive die indices land in distinct packages, mirroring interleaved
// chip-enable wiring.
func (g Geometry) Package(die int) int { return die % g.PackagesPerChannel }

// MapLogical translates a logical page number into a physical location using
// channel-first, plane-second, die-third striping:
//
//	channel = lpn mod C
//	plane   = (lpn / C) mod P
//	die     = (lpn / (C*P)) mod D
//
// With this order a request must span at least 2*C contiguous pages before
// multi-plane operation becomes possible (PAL3) and more than C*P pages per
// die row before die interleaving kicks in (PAL2/PAL4). Small or fragmented
// requests therefore degrade exactly the way the paper's Figure 10 shows.
func (g Geometry) MapLogical(lpn int64, planes int) Location {
	if planes <= 0 {
		planes = 1
	}
	c := int64(g.Channels)
	p := int64(planes)
	d := int64(g.DiesPerChannel())
	return Location{
		Channel: int(lpn % c),
		Plane:   int((lpn / c) % p),
		Die:     int((lpn / (c * p)) % d),
	}
}
