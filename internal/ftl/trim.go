package ftl

import "oocnvm/internal/nvm"

// Erase implements the host-facing erase/discard verb of the ssd.Translator
// contract. Under an FTL the host cannot erase physical blocks; the request
// is honored as a TRIM: affected logical pages are unmapped and their
// physical copies invalidated, making the space reclaimable by GC. No device
// operations are issued for the data itself, but in durable mode each
// actually-invalidated page appends a trim record to the journal (carrying
// the page's version so recovery cannot resurrect stale copies), and a full
// record page — or a due checkpoint — flushes as metadata programs.
func (f *FTL) Erase(offset, size int64) []nvm.PageOp {
	if size <= 0 {
		return nil
	}
	// A volatile FTL emits no device ops for a trim at all — the contract
	// (and its tests) pin a nil return, so only durable mode borrows a
	// translation slice for its journal/checkpoint metadata programs.
	var ops []nvm.PageOp
	if f.dur != nil {
		ops = f.maybeCheckpoint(f.takeOps(0))
	}
	first := offset / f.cell.PageSize
	last := (offset + size - 1) / f.cell.PageSize
	for lpn := first; lpn <= last; lpn++ {
		if f.tap != nil {
			f.tap.MapTrim(lpn)
		}
		if ppn, ok := f.l2p.get(lpn); ok {
			f.sb[f.superOf(ppn)].valid--
			f.p2l.del(ppn)
			f.l2p.del(lpn)
			ops = f.appendRec(ops, rec{Kind: recTrim, A: lpn, V: f.version(lpn)})
		} else if f.liveIdentity(lpn) {
			f.dropIdentity(lpn)
			ops = f.appendRec(ops, rec{Kind: recTrim, A: lpn, V: f.version(lpn)})
		}
	}
	return ops
}
