// Package fault provides deterministic fault injection for the storage
// stack: a Device wrapper and a WAL file wrapper that share one operation
// counter and execute a scripted failure — a power cut at exactly the k-th
// I/O, optionally tearing the in-flight write, plus transient sync and read
// errors. Because every injected failure is driven by the script and the
// op counter rather than by wall time or randomness, a failing scenario
// replays bit-for-bit from its script.
//
// Two durability models are supported. Unbuffered (the default) is
// write-through: a completed WritePage is on the device, and a cut merely
// stops future I/O (tearing the cut write if scripted). Buffered mode
// models an operating-system page cache: device writes are staged in memory
// and reach the device only at Sync, so a cut discards everything staged
// since the last sync — the classic lost-unsynced-pages crash.
package fault

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"tcodm/internal/storage"
	"tcodm/internal/wal"
)

// ErrPowerCut is returned by every operation at and after the scripted cut
// point. It models the process dying mid-I/O: callers cannot distinguish it
// from the kernel never returning.
var ErrPowerCut = errors.New("fault: power cut")

// ErrInjected is returned by scripted transient failures (sync and read
// errors) that do not end the run.
var ErrInjected = errors.New("fault: injected I/O error")

// Script is a deterministic failure plan. The zero value injects nothing.
type Script struct {
	// CutAtOp cuts power at the k-th counted operation (1-based; 0 = never).
	// The cut operation itself does not complete: a write is dropped (or
	// torn, below), a sync does not reach the platter, a read fails.
	CutAtOp int
	// TearWrite applies the first TearBytes of the cut operation's payload
	// when the cut lands on a write, modelling a torn sector write. For a
	// device page the torn prefix lands over the page's previous content;
	// for a log append only the prefix bytes are written.
	TearWrite bool
	// TearBytes is the length of the torn prefix (default 512 if zero).
	TearBytes int
	// Buffered stages device writes in memory until Sync; the cut discards
	// staged writes. See the package comment.
	Buffered bool
	// SyncApply is, in buffered mode with the cut landing on a device Sync,
	// the number of staged page writes that still reach the device (in
	// staging order) before the cut. TearWrite additionally tears the next
	// staged write after those.
	SyncApply int
	// SyncErrAt makes the k-th Sync (device or log, 1-based; 0 = never)
	// fail once with ErrInjected without syncing.
	SyncErrAt int
	// ReadErrAt makes the k-th read (1-based; 0 = never) fail once with
	// ErrInjected.
	ReadErrAt int
}

// Report records what the injector actually did, for assertions and logs.
type Report struct {
	Ops      int   // operations counted
	Reads    int   // reads counted
	Syncs    int   // syncs counted
	Cut      bool  // the power cut fired
	CutOp    int   // operation index it fired at
	TornPage int64 // device page torn at the cut (-1 = none)
	TornLog  bool  // log append torn at the cut
	Dropped  int   // buffered device writes discarded by the cut
	SyncErrs int   // transient sync errors injected
	ReadErrs int   // transient read errors injected
}

// Injector holds the script, the shared operation counter, and the cut
// state for one scenario. One Injector is shared by the device and log
// wrappers of a database so the op counter spans both files.
type Injector struct {
	mu     sync.Mutex
	script Script
	report Report
	cut    bool
}

// NewInjector prepares a scenario from script.
func NewInjector(script Script) *Injector {
	if script.TearBytes <= 0 {
		script.TearBytes = 512
	}
	if script.TearBytes > storage.PageSize {
		script.TearBytes = storage.PageSize
	}
	return &Injector{script: script, report: Report{TornPage: -1}}
}

// Report returns a snapshot of what has been injected so far.
func (in *Injector) Report() Report {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.report
}

// Cut reports whether the power has been cut.
func (in *Injector) Cut() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.cut
}

// opKind classifies counted operations.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opSync
)

// step counts one operation and decides its fate:
// proceed — perform the operation normally;
// cutHere — this operation is the cut point (op-specific handling);
// failTransient — return ErrInjected without side effects;
// dead — the power is already off, return ErrPowerCut.
type verdict uint8

const (
	proceed verdict = iota
	cutHere
	failTransient
	dead
)

func (in *Injector) step(kind opKind) verdict {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cut {
		return dead
	}
	in.report.Ops++
	switch kind {
	case opRead:
		in.report.Reads++
	case opSync:
		in.report.Syncs++
	}
	if in.script.CutAtOp > 0 && in.report.Ops == in.script.CutAtOp {
		in.cut = true
		in.report.Cut = true
		in.report.CutOp = in.report.Ops
		return cutHere
	}
	if kind == opSync && in.script.SyncErrAt > 0 && in.report.Syncs == in.script.SyncErrAt {
		in.report.SyncErrs++
		return failTransient
	}
	if kind == opRead && in.script.ReadErrAt > 0 && in.report.Reads == in.script.ReadErrAt {
		in.report.ReadErrs++
		return failTransient
	}
	return proceed
}

// --- Device wrapper ---------------------------------------------------------

// Device wraps a storage.Device with fault injection. Not safe for use by
// more than one goroutine (neither is the single-writer engine beneath it).
type Device struct {
	inj *Injector
	dev storage.Device

	mu sync.Mutex
	// Buffered-mode staging: page images not yet applied to the device.
	staged map[storage.PageID][]byte
	order  []storage.PageID // first-staging order
	pages  storage.PageID   // logical size including staged growth
}

// NewDevice wraps dev with the injector's script.
func NewDevice(inj *Injector, dev storage.Device) *Device {
	return &Device{inj: inj, dev: dev, staged: map[storage.PageID][]byte{}, pages: dev.NumPages()}
}

// ReadPage implements storage.Device.
func (d *Device) ReadPage(id storage.PageID, buf []byte) error {
	switch d.inj.step(opRead) {
	case dead, cutHere:
		return ErrPowerCut
	case failTransient:
		return fmt.Errorf("reading page %d: %w", id, ErrInjected)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if img, ok := d.staged[id]; ok {
		if len(buf) != storage.PageSize {
			return fmt.Errorf("fault: read buffer has %d bytes, want %d", len(buf), storage.PageSize)
		}
		copy(buf, img)
		return nil
	}
	return d.dev.ReadPage(id, buf)
}

// WritePage implements storage.Device.
func (d *Device) WritePage(id storage.PageID, buf []byte) error {
	switch d.inj.step(opWrite) {
	case dead:
		return ErrPowerCut
	case cutHere:
		d.cutOnWrite(id, buf)
		return ErrPowerCut
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.inj.script.Buffered {
		if err := d.dev.WritePage(id, buf); err != nil {
			return err
		}
		if id == d.pages {
			d.pages++
		}
		return nil
	}
	// Buffered: stage the image; it reaches the device at Sync.
	if id > d.pages {
		return fmt.Errorf("fault: write of page %d would leave a hole (device has %d pages)", id, d.pages)
	}
	if _, ok := d.staged[id]; !ok {
		d.order = append(d.order, id)
	}
	img := make([]byte, storage.PageSize)
	copy(img, buf)
	d.staged[id] = img
	if id == d.pages {
		d.pages++
	}
	return nil
}

// cutOnWrite handles a cut landing on a WritePage: the write is dropped,
// or — with TearWrite — its first TearBytes land over the page's previous
// content (write-through mode only; a buffered write that was never synced
// cannot tear anything on the device).
func (d *Device) cutOnWrite(id storage.PageID, buf []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sc := d.inj.script
	if sc.Buffered {
		d.dropStagedLocked()
		return
	}
	if !sc.TearWrite {
		return
	}
	d.tearOntoDeviceLocked(id, buf, sc.TearBytes)
}

// tearOntoDeviceLocked writes prefix bytes of buf over page id's previous
// device content (zeros if the page is new) and records the casualty.
func (d *Device) tearOntoDeviceLocked(id storage.PageID, buf []byte, tearBytes int) {
	merged := make([]byte, storage.PageSize)
	if id < d.dev.NumPages() {
		if err := d.dev.ReadPage(id, merged); err != nil {
			return // device refused; nothing landed
		}
	}
	copy(merged[:tearBytes], buf[:tearBytes])
	if d.dev.WritePage(id, merged) == nil {
		d.inj.mu.Lock()
		d.inj.report.TornPage = int64(id)
		d.inj.mu.Unlock()
	}
}

// NumPages implements storage.Device.
func (d *Device) NumPages() storage.PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pages
}

// Sync implements storage.Device.
func (d *Device) Sync() error {
	switch d.inj.step(opSync) {
	case dead:
		return ErrPowerCut
	case cutHere:
		d.cutOnSync()
		return ErrPowerCut
	case failTransient:
		return fmt.Errorf("device sync: %w", ErrInjected)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.inj.script.Buffered {
		if err := d.applyStagedLocked(len(d.order), false); err != nil {
			return err
		}
	}
	return d.dev.Sync()
}

// cutOnSync handles a cut landing on a device Sync. Unbuffered, the writes
// are already down and only the fsync is lost — a no-op for a model without
// a disk cache. Buffered, the first SyncApply staged writes land (they were
// "in flight"), the next one optionally tears, and the rest are lost.
func (d *Device) cutOnSync() {
	d.mu.Lock()
	defer d.mu.Unlock()
	sc := d.inj.script
	if !sc.Buffered {
		return
	}
	n := sc.SyncApply
	if n > len(d.order) {
		n = len(d.order)
	}
	_ = d.applyStagedLocked(n, sc.TearWrite)
	d.dropStagedLocked()
}

// applyStagedLocked writes the first n staged pages to the device in
// staging order, optionally tearing the (n+1)-th. Applied entries are
// removed from the staging area.
func (d *Device) applyStagedLocked(n int, tearNext bool) error {
	for i := 0; i < n; i++ {
		id := d.order[i]
		if err := d.dev.WritePage(id, d.staged[id]); err != nil {
			return err
		}
	}
	if tearNext && n < len(d.order) {
		id := d.order[n]
		d.tearOntoDeviceLocked(id, d.staged[id], d.inj.script.TearBytes)
	}
	for i := 0; i < n; i++ {
		delete(d.staged, d.order[i])
	}
	d.order = d.order[n:]
	return nil
}

// dropStagedLocked discards everything staged (the cut ate the page cache).
func (d *Device) dropStagedLocked() {
	d.inj.mu.Lock()
	d.inj.report.Dropped += len(d.order)
	d.inj.mu.Unlock()
	d.staged = map[storage.PageID][]byte{}
	d.order = nil
	d.pages = d.dev.NumPages()
}

// Close implements storage.Device. Staged-but-unsynced writes are discarded,
// exactly as a crash would discard them; the torture harness closes through
// Engine.Crash, never through a clean path, once a fault has fired.
func (d *Device) Close() error {
	return d.dev.Close()
}

// --- WAL file wrapper -------------------------------------------------------

// logWrite is one staged log append.
type logWrite struct {
	off  int64
	data []byte
}

// LogFile wraps a wal.File with the same injector as the database's device,
// so the shared op counter spans both files. Writes are staged in memory and
// reach the file only at Sync — the OS page-cache model — so a power cut
// loses every unsynced append and "commit acknowledged" coincides exactly
// with "records durable" (the WAL syncs before acknowledging). A cut landing
// on a Sync with TearWrite set applies a strict prefix of the staged bytes,
// producing exactly the torn-tail record the WAL's recovery path must
// absorb; a strict prefix, because an append that landed every byte would
// not be torn but an in-doubt commit, which this model deliberately excludes.
type LogFile struct {
	inj *Injector
	f   wal.File

	mu     sync.Mutex
	staged []logWrite
}

// NewLogFile wraps f with the injector's script.
func NewLogFile(inj *Injector, f wal.File) *LogFile {
	return &LogFile{inj: inj, f: f}
}

// ReadAt implements io.ReaderAt, merging staged writes over file content.
func (l *LogFile) ReadAt(p []byte, off int64) (int, error) {
	switch l.inj.step(opRead) {
	case dead, cutHere:
		return 0, ErrPowerCut
	case failTransient:
		return 0, fmt.Errorf("log read: %w", ErrInjected)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n, err := l.f.ReadAt(p, off)
	if err != nil && err != io.EOF {
		return n, err
	}
	covered := n
	for _, w := range l.staged {
		lo, hi := w.off, w.off+int64(len(w.data))
		if hi <= off || lo >= off+int64(len(p)) {
			continue
		}
		src, dst := int64(0), lo-off
		if dst < 0 {
			src, dst = -dst, 0
		}
		m := copy(p[dst:], w.data[src:])
		if int(dst)+m > covered {
			covered = int(dst) + m
		}
	}
	if covered < len(p) {
		return covered, io.EOF
	}
	return covered, nil
}

// WriteAt implements io.WriterAt by staging the bytes until the next Sync.
func (l *LogFile) WriteAt(p []byte, off int64) (int, error) {
	switch l.inj.step(opWrite) {
	case dead:
		return 0, ErrPowerCut
	case cutHere:
		// The write never reached the page cache; earlier staged writes die
		// with it. Nothing to do — the wrapper is abandoned with the crash.
		return 0, ErrPowerCut
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	cp := make([]byte, len(p))
	copy(cp, p)
	l.staged = append(l.staged, logWrite{off: off, data: cp})
	return len(p), nil
}

// Sync implements wal.File: staged writes land, in order, then the file is
// synced.
func (l *LogFile) Sync() error {
	switch l.inj.step(opSync) {
	case dead:
		return ErrPowerCut
	case cutHere:
		l.cutOnSync()
		return ErrPowerCut
	case failTransient:
		return fmt.Errorf("log sync: %w", ErrInjected)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, w := range l.staged {
		if _, err := l.f.WriteAt(w.data, w.off); err != nil {
			return err
		}
	}
	l.staged = nil
	return l.f.Sync()
}

// cutOnSync handles a cut landing on a log Sync: with TearWrite, a strict
// prefix of the staged byte stream lands; without, nothing does.
func (l *LogFile) cutOnSync() {
	l.mu.Lock()
	defer l.mu.Unlock()
	sc := l.inj.script
	if sc.TearWrite {
		total := 0
		for _, w := range l.staged {
			total += len(w.data)
		}
		budget := sc.TearBytes
		if budget >= total {
			budget = total - 1
		}
		for _, w := range l.staged {
			if budget <= 0 {
				break
			}
			n := len(w.data)
			if n > budget {
				n = budget
			}
			if _, err := l.f.WriteAt(w.data[:n], w.off); err != nil {
				break
			}
			budget -= n
			l.inj.mu.Lock()
			l.inj.report.TornLog = true
			l.inj.mu.Unlock()
		}
	}
	l.staged = nil
}

// Truncate implements wal.File. The truncation is applied immediately
// (write-through): the WAL only truncates at checkpoints, after the pages
// it covers are already durable, and a truncate that is later undone by a
// crash merely re-replays records the page-LSN guard no-ops.
func (l *LogFile) Truncate(size int64) error {
	switch l.inj.step(opWrite) {
	case dead, cutHere:
		return ErrPowerCut
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.staged[:0]
	for _, w := range l.staged {
		if w.off < size {
			if end := size - w.off; end < int64(len(w.data)) {
				w.data = w.data[:end]
			}
			kept = append(kept, w)
		}
	}
	l.staged = kept
	return l.f.Truncate(size)
}

// Close implements wal.File. Staged writes are discarded, as a crash would.
func (l *LogFile) Close() error { return l.f.Close() }

// interface assertions
var _ storage.Device = (*Device)(nil)
var _ wal.File = (*LogFile)(nil)
