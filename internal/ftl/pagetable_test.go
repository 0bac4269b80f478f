package ftl

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"oocnvm/internal/nvm"
)

// TestPageTableMatchesMapModel drives random set/delete/get sequences over
// keys spanning a paper-geometry device's page range against a map model.
// Each sequence first stores near the top of the range, so the directory
// must later grow at its front, then checks the count against the model and
// the in-order walk against the model's sorted keys.
func TestPageTableMatchesMapModel(t *testing.T) {
	pages := nvm.PaperGeometry().Pages(nvm.Params(nvm.PCM))
	prop := func(seed int64, nops uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		var pt pageTable
		model := map[int64]int64{}
		// Keys cluster in a few bands so deletes and overwrites hit
		// present keys, and the bands span the whole page range.
		bands := []int64{pages - leafSize, pages / 2, rng.Int63n(pages), 0}
		key := func(i int) int64 {
			b := bands[min(i/64, len(bands)-1)]
			if rng.Intn(4) == 0 {
				b = bands[rng.Intn(len(bands))]
			}
			return min(b+rng.Int63n(3*leafSize), pages-1)
		}
		for i := 0; i < 64+int(nops%2048); i++ {
			k := key(i)
			switch rng.Intn(3) {
			case 0, 1:
				v := rng.Int63n(pages)
				pt.set(k, v)
				model[k] = v
			case 2:
				_, want := model[k]
				if got := pt.del(k); got != want {
					t.Logf("del(%d) = %v, model %v", k, got, want)
					return false
				}
				delete(model, k)
			}
			probe := key(i)
			gv, gok := pt.get(probe)
			mv, mok := model[probe]
			if gok != mok || gv != mv || pt.has(probe) != mok {
				t.Logf("get(%d) = %d,%v, model %d,%v", probe, gv, gok, mv, mok)
				return false
			}
		}
		if pt.len() != int64(len(model)) {
			t.Logf("len %d, model %d", pt.len(), len(model))
			return false
		}
		want := make([]int64, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := make([]int64, 0, len(model))
		pt.each(func(k, v int64) {
			if model[k] != v {
				t.Errorf("walk %d -> %d, model %d", k, v, model[k])
			}
			got = append(got, k)
		})
		if !reflect.DeepEqual(got, want) {
			t.Logf("walk keys %v, model %v", got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPageTableReusesEmptiedLeaves walks keys forward the way the log head
// walks the reverse map: each round fills the next leaf and empties the one
// behind it. The table must cycle two leaves, not allocate one per round.
func TestPageTableReusesEmptiedLeaves(t *testing.T) {
	var pt pageTable
	for head := int64(0); head < 64*leafSize; head += leafSize {
		for k := head; k < head+leafSize; k++ {
			pt.set(k, k)
			if k >= leafSize {
				pt.del(k - leafSize)
			}
		}
	}
	leaves := len(pt.spare)
	for _, d := range pt.dir {
		if d.l != nil {
			leaves++
		}
	}
	if leaves > 2 || pt.len() != leafSize {
		t.Fatalf("64 rounds hold %d leaves and %d keys, want <= 2 and %d", leaves, pt.len(), leafSize)
	}
	for k := int64(0); k < 64*leafSize; k++ {
		v, ok := pt.get(k)
		if want := k >= 63*leafSize; ok != want || (ok && v != k) {
			t.Fatalf("get(%d) = %d, %v after reuse, want present %v", k, v, ok, want)
		}
	}
}

// TestNewRejectsPageCountBeyondTable pins the typed guard on the page
// table's entry width: the largest geometry in use fits, and one whose page
// numbers overflow an int32 is refused with an error instead of wrapping.
func TestNewRejectsPageCountBeyondTable(t *testing.T) {
	for _, cell := range []nvm.CellType{nvm.SLC, nvm.MLC, nvm.TLC, nvm.PCM} {
		if _, err := New(nvm.PaperGeometry(), nvm.Params(cell), Config{}); err != nil {
			t.Fatalf("%v at paper geometry: %v", cell, err)
		}
	}
	geo := nvm.PaperGeometry()
	geo.BlocksPerPlane *= 16 // PCM: 2^31 pages, one past the int32 range
	_, err := New(geo, nvm.Params(nvm.PCM), Config{})
	if !errors.Is(err, errTooManyPages) {
		t.Fatalf("New with %d pages: err %v, want errTooManyPages", geo.Pages(nvm.Params(nvm.PCM)), err)
	}
}

// TestFiguresWritePatternAllocs pins the figures cells' FTL cost at paper
// geometry: on a freshly constructed FTL with 96 MiB preloaded, a few
// file-system metadata writes in the device's last pages and a data read at
// the front. A page table whose directory spanned every page up to the
// highest one written would allocate megabytes here on PCM. Construction
// itself, whose bytes are the superblock table, is pinned by
// TestNewPreloadAllocs.
func TestFiguresWritePatternAllocs(t *testing.T) {
	const runs = 5
	for _, cell := range []nvm.CellType{nvm.SLC, nvm.MLC, nvm.TLC, nvm.PCM} {
		fs := make([]*FTL, runs+1)
		for i := range fs {
			f, err := New(nvm.PaperGeometry(), nvm.Params(cell), Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Preload(96 << 20); err != nil {
				t.Fatal(err)
			}
			fs[i] = f
		}
		next := 0
		objs, bytes := allocsPerRun(runs, func() {
			f := fs[next]
			next++
			ps := f.PageSize()
			for i := int64(0); i < 4; i++ {
				f.Write((f.Pages()-64+16*i)*ps, 16*ps)
			}
			f.Read(0, 64*ps)
		})
		if objs > 16 || bytes > 24<<10 {
			t.Errorf("%v: figures write pattern allocates %.0f objects, %.0f bytes; want <= 16, <= 24 KiB",
				cell, objs, bytes)
		}
		t.Logf("%v: %.0f allocs, %.0f bytes", cell, objs, bytes)
	}
}

// allocsPerRun is testing.AllocsPerRun reporting bytes as well as objects:
// the mean heap allocations of fn over runs, after one warm-up call.
func allocsPerRun(runs int, fn func()) (objs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
