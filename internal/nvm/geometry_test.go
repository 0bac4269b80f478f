package nvm

import (
	"testing"
	"testing/quick"
)

func TestPaperGeometry(t *testing.T) {
	g := PaperGeometry()
	if g.Channels != 8 {
		t.Errorf("channels = %d, want 8 (§4.1)", g.Channels)
	}
	if g.Packages() != 64 {
		t.Errorf("packages = %d, want 64 (§4.1)", g.Packages())
	}
	if g.Dies() != 128 {
		t.Errorf("dies = %d, want 128 (§4.1)", g.Dies())
	}
}

func TestGeometryValidate(t *testing.T) {
	if err := PaperGeometry().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Geometry{Channels: 0, PackagesPerChannel: 8, DiesPerPackage: 2, BlocksPerPlane: 10}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero channels passed validation")
	}
}

func TestGeometryCapacity(t *testing.T) {
	g := Geometry{Channels: 2, PackagesPerChannel: 2, DiesPerPackage: 1, BlocksPerPlane: 4}
	cell := Params(SLC) // 2 planes, 64 pages/block, 2 KiB pages
	want := int64(4*cell.Planes*4) * cell.BlockSize()
	if got := g.Capacity(cell); got != want {
		t.Fatalf("Capacity = %d, want %d", got, want)
	}
	if got := g.Pages(cell); got != want/cell.PageSize {
		t.Fatalf("Pages = %d, want %d", got, want/cell.PageSize)
	}
}

// TestMapLogicalStripeOrder verifies channel-first, plane-second, die-third
// striping.
func TestMapLogicalStripeOrder(t *testing.T) {
	g := PaperGeometry()
	const planes = 2
	// First C pages walk the channels on plane 0, die 0.
	for lpn := int64(0); lpn < int64(g.Channels); lpn++ {
		loc := g.MapLogical(lpn, planes)
		if loc.Channel != int(lpn) || loc.Plane != 0 || loc.Die != 0 {
			t.Fatalf("lpn %d -> %+v, want channel %d plane 0 die 0", lpn, loc, lpn)
		}
	}
	// The next C pages hit plane 1.
	loc := g.MapLogical(int64(g.Channels), planes)
	if loc.Plane != 1 || loc.Die != 0 {
		t.Fatalf("lpn C -> %+v, want plane 1 die 0", loc)
	}
	// After C*P pages the die advances.
	loc = g.MapLogical(int64(g.Channels*planes), planes)
	if loc.Die != 1 || loc.Plane != 0 {
		t.Fatalf("lpn C*P -> %+v, want die 1 plane 0", loc)
	}
}

// Property: mapping always lands inside the geometry.
func TestMapLogicalInRangeProperty(t *testing.T) {
	g := PaperGeometry()
	f := func(lpn uint32, planes8 uint8) bool {
		planes := int(planes8%3) + 1
		loc := g.MapLogical(int64(lpn), planes)
		return loc.Channel >= 0 && loc.Channel < g.Channels &&
			loc.Die >= 0 && loc.Die < g.DiesPerChannel() &&
			loc.Plane >= 0 && loc.Plane < planes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: consecutive pages within one die row spread uniformly — exactly
// C*P distinct (channel, plane) pairs before any repeats.
func TestMapLogicalSpreadProperty(t *testing.T) {
	g := PaperGeometry()
	const planes = 2
	row := g.Channels * planes
	seen := make(map[[2]int]bool)
	for lpn := 0; lpn < row; lpn++ {
		loc := g.MapLogical(int64(lpn), planes)
		key := [2]int{loc.Channel, loc.Plane}
		if seen[key] {
			t.Fatalf("duplicate (channel,plane) %v before row exhausted", key)
		}
		seen[key] = true
	}
	if len(seen) != row {
		t.Fatalf("covered %d slots, want %d", len(seen), row)
	}
}

func TestPackageAssignment(t *testing.T) {
	g := PaperGeometry()
	// Dies distribute round-robin over packages.
	for die := 0; die < g.DiesPerChannel(); die++ {
		pkg := g.Package(die)
		if pkg < 0 || pkg >= g.PackagesPerChannel {
			t.Fatalf("die %d -> package %d out of range", die, pkg)
		}
	}
	// Consecutive dies land in distinct packages.
	if g.Package(0) == g.Package(1) {
		t.Fatal("consecutive dies share a package; interleaved wiring expected")
	}
}

// Property: NextLogical is MapLogical's successor. Over two full stripe
// periods from page 0 and across the device's last-page-to-page-0 wrap,
// stepping the location of page x gives the location of page x+1, for every
// cell type at paper geometry and at a 3-channel × 6-die geometry whose
// radices are not powers of two.
func TestNextLogicalStepsMapLogical(t *testing.T) {
	geos := []Geometry{
		PaperGeometry(),
		{Channels: 3, PackagesPerChannel: 3, DiesPerPackage: 2, BlocksPerPlane: 4},
	}
	for _, g := range geos {
		for _, ct := range CellTypes {
			cell := Params(ct)
			period := int64(g.Channels * cell.Planes * g.DiesPerChannel())
			pages := g.Pages(cell)
			step := func(x int64) {
				next := x + 1
				if next == pages {
					next = 0
				}
				got := g.NextLogical(g.MapLogical(x, cell.Planes), cell.Planes)
				if want := g.MapLogical(next, cell.Planes); got != want {
					t.Fatalf("%+v %v: NextLogical(MapLogical(%d)) = %+v, MapLogical(%d) = %+v",
						g, ct, x, got, next, want)
				}
			}
			for x := int64(0); x < 2*period; x++ {
				step(x)
			}
			for x := pages - 2*period; x < pages; x++ {
				step(x)
			}
		}
	}
}
