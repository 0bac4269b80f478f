package ftl

import "math"

// leafBits sizes the page table's leaves: 512 int32 slots, 2 KiB. Larger
// leaves cost the cells that write only a few metadata pages; smaller ones
// lengthen the directory of a forward map whose writes reach both ends of
// the device (data near the front, file-system metadata at the end).
const (
	leafBits = 9
	leafSize = 1 << leafBits
	leafMask = leafSize - 1
)

// maxEntry bounds the values a pageTable stores: a slot holds v+1 in an
// int32, so v must lie in [0, maxEntry). New refuses geometries whose page
// numbers would not fit.
const maxEntry = math.MaxInt32

// leaf is one fixed run of table slots. A slot holds v+1; zero is absent.
type leaf [leafSize]int32

// node is one directory entry: a leaf and its count of present slots,
// kept here so a leaf stays exactly 2 KiB.
type node struct {
	l    *leaf // nil when no slot is present
	live int32
}

// pageTable is the FTL's sparse page-number map, used for the forward map
// (lpn -> ppn), the reverse map (ppn -> lpn) and the dead identity set.
// It is a directory of leaves allocated on first store. The directory
// covers only the leaves ever touched, starting at leaf index base, and
// grows at either end: a device that only ever writes a few metadata pages
// at its far end gets a one-entry directory, not one sized to its whole
// page range. A leaf that empties moves to spare and serves the next first
// store: the reverse map's keys are physical pages, which the log head
// walks forward while overwrites and GC empty the leaves behind it, so a
// warm drive allocates no leaves. The zero value is an empty table that
// allocates nothing until the first set.
type pageTable struct {
	base  int64   // leaf index of dir[0]
	dir   []node  // entries with a nil leaf are all absent
	spare []*leaf // emptied leaves, all slots zero
	n     int64   // present slots
}

// len reports the number of present keys.
func (t *pageTable) len() int64 { return t.n }

// leafOf returns k's leaf, or nil when none holds a present key.
func (t *pageTable) leafOf(k int64) *leaf {
	i := (k >> leafBits) - t.base
	if uint64(i) >= uint64(len(t.dir)) {
		return nil
	}
	return t.dir[i].l
}

// get returns k's value and whether k is present.
func (t *pageTable) get(k int64) (int64, bool) {
	l := t.leafOf(k)
	if l == nil || l[k&leafMask] == 0 {
		return 0, false
	}
	return int64(l[k&leafMask]) - 1, true
}

// has reports whether k is present.
func (t *pageTable) has(k int64) bool {
	l := t.leafOf(k)
	return l != nil && l[k&leafMask] != 0
}

// set stores v under k, taking k's leaf (and widening the directory) on
// first touch. v must lie in [0, maxEntry).
func (t *pageTable) set(k, v int64) {
	if uint64(v) >= maxEntry {
		panic("ftl: page table value out of range")
	}
	i := (k >> leafBits) - t.base
	if uint64(i) >= uint64(len(t.dir)) || t.dir[i].l == nil {
		i = t.grow(k)
	}
	d := &t.dir[i]
	s := &d.l[k&leafMask]
	if *s == 0 {
		d.live++
		t.n++
	}
	*s = int32(v + 1)
}

// del removes k, reporting whether it was present.
func (t *pageTable) del(k int64) bool {
	i := (k >> leafBits) - t.base
	if uint64(i) >= uint64(len(t.dir)) {
		return false
	}
	d := &t.dir[i]
	if d.l == nil || d.l[k&leafMask] == 0 {
		return false
	}
	d.l[k&leafMask] = 0
	t.n--
	if d.live--; d.live == 0 {
		t.spare = append(t.spare, d.l)
		d.l = nil
	}
	return true
}

// grow gives k a leaf and returns its directory index. A directory that
// must widen at least doubles, so runs of first stores walking either way
// cost amortized constant time; front headroom stops at leaf 0, below
// which no page number lies.
func (t *pageTable) grow(k int64) int64 {
	li := k >> leafBits
	switch {
	case len(t.dir) == 0:
		t.base = li
		t.dir = make([]node, 1)
	case li < t.base:
		end := t.base + int64(len(t.dir))
		nb := min(li, max(end-2*int64(len(t.dir)), 0))
		dir := make([]node, end-nb)
		copy(dir[t.base-nb:], t.dir)
		t.base, t.dir = nb, dir
	case li >= t.base+int64(len(t.dir)):
		need := int(li - t.base + 1)
		if need > cap(t.dir) {
			dir := make([]node, need, max(need, 2*cap(t.dir)))
			copy(dir, t.dir)
			t.dir = dir
		}
		t.dir = t.dir[:need]
	}
	i := li - t.base
	if n := len(t.spare); n > 0 {
		t.dir[i].l, t.spare = t.spare[n-1], t.spare[:n-1]
	} else {
		t.dir[i].l = new(leaf)
	}
	return i
}

// each calls fn for every present key in ascending order. fn may delete
// or overwrite the key it is visiting, but must not store new keys.
func (t *pageTable) each(fn func(k, v int64)) {
	for i := range t.dir {
		l := t.dir[i].l
		if l == nil {
			continue
		}
		base := (t.base + int64(i)) << leafBits
		for j := range l {
			if s := l[j]; s != 0 {
				fn(base+int64(j), int64(s)-1)
			}
		}
	}
}
