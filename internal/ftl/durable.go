package ftl

import (
	"sort"

	"oocnvm/internal/nvm"
)

// OOB is the out-of-band tag committed atomically with every data-page
// program: the logical page the payload belongs to and the monotonically
// increasing write version the FTL assigned it. These are the tags the
// conformance oracle (check.Oracle) tracks in shadow; durable mode makes
// them part of the media model so mount-time recovery can rebuild the
// mapping from the device alone.
type OOB struct {
	LPN int64
	Ver uint64
}

// DurableConfig tunes the durable-metadata model: periodic full
// mapping-table checkpoints plus an L2P delta journal, both written as
// metadata pages through the normal device path. The zero value leaves
// the FTL volatile (bit-identical to builds before the feature existed).
type DurableConfig struct {
	// Enabled turns the durable-metadata model on.
	Enabled bool
	// CheckpointEveryPages is the number of host page writes between full
	// mapping-table checkpoints (<= 0 selects four superblocks' worth).
	CheckpointEveryPages int64
	// JournalEntriesPerPage is how many delta records one metadata page
	// holds (<= 0 selects PageSize/16 — 16 bytes per packed record).
	JournalEntriesPerPage int
}

// recKind discriminates journal/checkpoint delta records.
type recKind uint8

const (
	// recPlace: lpn A now lives at ppn B with version V.
	recPlace recKind = iota
	// recTrim: lpn A was unmapped; V preserves its version so a later
	// open-superblock scan cannot resurrect stale higher-versioned copies.
	recTrim
	// recSeal: superblock A sealed (informational; recovery seals all).
	recSeal
	// recAlloc: superblock A became the active log head. Every alloc
	// flushes the journal, so the newest replayable alloc always names
	// the true open superblock.
	recAlloc
	// recErase: superblock A erased; V is its absolute post-erase wear.
	recErase
	// recRetire: superblock A grew bad and was retired.
	recRetire
	// recPreload: the first A superblocks hold identity-mapped preloaded
	// data.
	recPreload
	// recState (checkpoint only): superblock A has wear V; B bit0 = bad.
	recState
	// recDead (checkpoint only): preloaded identity slot A is dead.
	recDead
	// recActive (checkpoint only): superblock A is the open log head with
	// write pointer B (-1 when no superblock is open).
	recActive
	// recVer (checkpoint only): unmapped lpn A once reached version V
	// (trimmed history; keeps the version monotonic across recovery).
	recVer
)

// rec is one packed journal/checkpoint record (model: 16 bytes on media).
type rec struct {
	Kind recKind
	A, B int64
	V    uint64
}

// metaKind discriminates metadata pages.
type metaKind uint8

const (
	metaJournal metaKind = iota
	metaCkpt
)

// metaPage is one durable metadata page. Pages carry a strictly
// increasing sequence number; checkpoint pages additionally carry the
// first sequence of their group and a Last marker so recovery can tell a
// complete checkpoint from one a power cut interrupted.
type metaPage struct {
	Seq  int64
	Kind metaKind
	Ckpt int64 // first seq of the checkpoint group (metaCkpt only)
	Last bool  // final page of the checkpoint group
	Recs []rec
	// Corrupt marks a committed page whose content is unreadable (test
	// hook for the unrecoverable-metadata path).
	Corrupt bool
}

// Media is the simulated durable NAND state behind one FTL: per-page
// payload OOB tags, torn pages, and the committed metadata-page chain. It
// implements nvm.MediaTap, so state changes happen exactly when the
// device executes the program/erase — which is what makes a mid-request
// power cut leave a physically honest image: committed pages of acked
// requests, a partial subset of the crashing request's, one torn page,
// and nothing from ops the cut voided.
//
// Metadata pages live past the data page space (PPN = Pages()+Seq) and
// are modeled as an append-only chain that is never erased; the journal
// write-amplification counters price its cost, and checkpointing bounds
// how much of it recovery must read.
type Media struct {
	pages int64 // data page population
	spb   int64
	rowsz int64
	ppb   int64

	data     map[int64]OOB      // committed data pages -> OOB tags
	torn     map[int64]bool     // torn data pages (payload garbage)
	staged   map[int64]metaPage // seq -> staged content awaiting program
	meta     map[int64]metaPage // seq -> committed metadata page
	tornMeta map[int64]bool     // seq -> torn metadata page
	nextSeq  int64
}

func newMedia(pages, spb, rowsz, ppb int64) *Media {
	return &Media{
		pages: pages, spb: spb, rowsz: rowsz, ppb: ppb,
		data:     make(map[int64]OOB),
		torn:     make(map[int64]bool),
		staged:   make(map[int64]metaPage),
		meta:     make(map[int64]metaPage),
		tornMeta: make(map[int64]bool),
	}
}

// stage assigns the next metadata sequence number to pg and parks its
// content until the device commits the program; it returns the PPN the
// page op must carry.
func (m *Media) stage(pg metaPage) int64 {
	pg.Seq = m.nextSeq
	m.nextSeq++
	m.staged[pg.Seq] = pg
	return m.pages + pg.Seq
}

// commitDirect persists a metadata page outside the device path (pre-run
// setup like Preload, which runs before any request exists to ride).
func (m *Media) commitDirect(pg metaPage) {
	ppn := m.stage(pg)
	m.MediaProgram(nvm.PageOp{Op: nvm.OpProgram, PPN: ppn, Meta: true, LPN: -1}, false)
}

// MediaProgram implements nvm.MediaTap: commit one page program. A torn
// program leaves the page unreadable — payload garbage, OOB unlanded.
func (m *Media) MediaProgram(op nvm.PageOp, torn bool) {
	if op.PPN >= m.pages {
		seq := op.PPN - m.pages
		if torn {
			m.tornMeta[seq] = true
			delete(m.staged, seq)
			return
		}
		if pg, ok := m.staged[seq]; ok {
			m.meta[seq] = pg
			delete(m.staged, seq)
		}
		return
	}
	if torn {
		m.torn[op.PPN] = true
		delete(m.data, op.PPN)
		return
	}
	delete(m.torn, op.PPN)
	m.data[op.PPN] = OOB{LPN: op.LPN, Ver: op.Ver}
}

// MediaErase implements nvm.MediaTap: clear the eraseblock holding
// op.PPN. A torn erase clears too — the erase pulse destroys the block's
// contents before completing, which is exactly why durable mode orders
// erases behind the metadata that makes them safe.
func (m *Media) MediaErase(op nvm.PageOp, torn bool) {
	base := (op.PPN / m.spb) * m.spb
	slot := op.PPN % m.rowsz
	for k := int64(0); k < m.ppb; k++ {
		p := base + k*m.rowsz + slot
		delete(m.data, p)
		delete(m.torn, p)
	}
}

// PageState reports the durable state of one data page: its OOB tags if
// programmed, and whether a power cut tore it.
func (m *Media) PageState(ppn int64) (oob OOB, programmed, torn bool) {
	if m.torn[ppn] {
		return OOB{}, false, true
	}
	oob, programmed = m.data[ppn]
	return oob, programmed, false
}

// MetaPages reports how many metadata pages have committed.
func (m *Media) MetaPages() int64 { return int64(len(m.meta)) }

// CorruptMeta marks the committed metadata page with the given sequence
// number unreadable (test hook for the unrecoverable path); it reports
// whether such a page existed.
func (m *Media) CorruptMeta(seq int64) bool {
	pg, ok := m.meta[seq]
	if !ok {
		return false
	}
	pg.Corrupt = true
	m.meta[seq] = pg
	return true
}

// maxSeq returns the highest committed-or-torn metadata sequence, -1 when
// none.
func (m *Media) maxSeq() int64 {
	max := int64(-1)
	for s := range m.meta {
		if s > max {
			max = s
		}
	}
	for s := range m.tornMeta {
		if s > max {
			max = s
		}
	}
	return max
}

// durState is the FTL's durable-metadata bookkeeping.
type durState struct {
	cfg       DurableConfig
	ver       map[int64]uint64 // per-lpn write version, monotonic forever
	buf       []rec            // journal records awaiting a page flush
	perPage   int
	ckptEvery int64
	sinceCkpt int64

	journalPages int64
	ckptPages    int64
	ckptRuns     int64
}

// Media exposes the durable media model (nil when durable mode is off).
// Hand it to Recover after a power cut to remount the surviving state.
func (f *FTL) Media() *Media { return f.media }

// MediaTap exposes the media model under the nvm duck-typing hook the ssd
// controller wires into the device; nil when durable mode is off.
func (f *FTL) MediaTap() nvm.MediaTap {
	if f.media == nil {
		return nil
	}
	return f.media
}

// ReadOnly reports whether the FTL mounted degraded after unrecoverable
// metadata loss; the controller must reject writes and trims.
func (f *FTL) ReadOnly() bool { return f.readOnly }

// version returns lpn's current write version (0 for never-written
// preloaded identity data).
func (f *FTL) version(lpn int64) uint64 {
	if f.dur == nil {
		return 0
	}
	return f.dur.ver[lpn]
}

// metaOp stages one metadata page on the media and returns the device
// program that will commit it. Metadata pages round-robin over the data
// geometry for timing purposes (their PPN encodes the sequence number).
func (f *FTL) metaOp(pg metaPage) nvm.PageOp {
	ppn := f.media.stage(pg)
	if pg.Kind == metaCkpt {
		f.dur.ckptPages++
		f.probe.Count("ftl.ckpt.pages", 1)
	} else {
		f.dur.journalPages++
		f.probe.Count("ftl.journal.pages", 1)
	}
	f.nandWrites++
	return nvm.PageOp{Op: nvm.OpProgram, Loc: f.Locate(ppn % f.Pages()), PPN: ppn, Meta: true, LPN: -1}
}

// appendRec buffers one journal record, flushing a full page's worth of
// metadata programs onto ops when the buffer reaches capacity (a no-op
// append when durable mode is off).
func (f *FTL) appendRec(ops []nvm.PageOp, r rec) []nvm.PageOp {
	if f.dur == nil {
		return ops
	}
	f.dur.buf = append(f.dur.buf, r)
	if len(f.dur.buf) >= f.dur.perPage {
		return f.flushJournal(ops)
	}
	return ops
}

// flushJournal writes every buffered journal record out as metadata
// pages, appended to ops. Allocation and retirement force a flush so the
// journal's newest replayable records always designate the true open
// superblock and every grown-bad verdict is durable before relocation
// begins.
func (f *FTL) flushJournal(ops []nvm.PageOp) []nvm.PageOp {
	if f.dur == nil || len(f.dur.buf) == 0 {
		return ops
	}
	buf := f.dur.buf
	for len(buf) > 0 {
		n := f.dur.perPage
		if n > len(buf) {
			n = len(buf)
		}
		recs := make([]rec, n)
		copy(recs, buf[:n])
		buf = buf[n:]
		ops = append(ops, f.metaOp(metaPage{Kind: metaJournal, Recs: recs}))
	}
	f.dur.buf = f.dur.buf[:0]
	return ops
}

// maybeCheckpoint emits a full-state checkpoint onto ops once enough host
// page writes have accumulated since the last one.
func (f *FTL) maybeCheckpoint(ops []nvm.PageOp) []nvm.PageOp {
	if f.dur == nil || f.dur.sinceCkpt < f.dur.ckptEvery {
		return ops
	}
	return f.checkpoint(ops)
}

// checkpoint snapshots the entire mapping state — preload extent, open
// superblock, per-superblock wear/bad, dead identity slots, every l2p
// entry with its version, and the versions of unmapped (trimmed) lpns —
// as a group of checkpoint pages. The group is atomic for recovery: only
// a group whose pages all committed and whose final page carries the Last
// marker is used, so a power cut mid-checkpoint falls back to the
// previous one plus the journal (which was flushed first, making the
// snapshot equal to a full replay).
func (f *FTL) checkpoint(ops []nvm.PageOp) []nvm.PageOp {
	ops = f.flushJournal(ops)
	recs := make([]rec, 0, 2+f.l2p.len()+f.dead.len())
	recs = append(recs, rec{Kind: recPreload, A: f.preloaded})
	recs = append(recs, rec{Kind: recActive, A: f.active, B: f.writePtr})
	for i := int64(0); i < f.super; i++ {
		s := &f.sb[i]
		if s.wear == 0 && !s.bad {
			continue
		}
		flags := int64(0)
		if s.bad {
			flags = 1
		}
		recs = append(recs, rec{Kind: recState, A: i, B: flags, V: uint64(s.wear)})
	}
	f.dead.each(func(lpn, _ int64) {
		recs = append(recs, rec{Kind: recDead, A: lpn})
	})
	f.l2p.each(func(lpn, ppn int64) {
		recs = append(recs, rec{Kind: recPlace, A: lpn, B: ppn, V: f.version(lpn)})
	})
	if f.dur != nil {
		extra := make([]int64, 0)
		for lpn, v := range f.dur.ver {
			if v == 0 {
				continue
			}
			if !f.l2p.has(lpn) {
				extra = append(extra, lpn)
			}
		}
		sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
		for _, lpn := range extra {
			recs = append(recs, rec{Kind: recVer, A: lpn, V: f.dur.ver[lpn]})
		}
	}
	first := f.media.nextSeq
	for len(recs) > 0 {
		n := f.dur.perPage
		if n > len(recs) {
			n = len(recs)
		}
		chunk := make([]rec, n)
		copy(chunk, recs[:n])
		recs = recs[n:]
		ops = append(ops, f.metaOp(metaPage{
			Kind: metaCkpt, Ckpt: first, Last: len(recs) == 0, Recs: chunk}))
	}
	f.dur.sinceCkpt = 0
	f.dur.ckptRuns++
	f.probe.Count("ftl.ckpt.runs", 1)
	return ops
}
