package deploy

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/pricing"
)

// The apply journal is a versioned append-only WAL that makes the
// Spec → Plan → Diff → Apply lifecycle crash-safe. Every plan application
// writes three kinds of records:
//
//	plan-begin(epoch, base-fingerprint, plan)   before the first step
//	step-done(epoch, i)                         after step i's effect lands
//	plan-commit(epoch, target-fingerprint)      after target verification
//
// plus plan-abort(epoch, base-fingerprint) when an apply fails cleanly,
// and snapshot(epoch, state-as-zero-step-plan) records written by periodic
// compaction and whenever an apply's base is not the state the journal
// already establishes (a snapshot is just a Snapshot plan whose target is
// the checkpointed state). A plan-begin body is the plan without its
// target: the header, the diff and the steps, plus the target's region
// tags when it has any. Recover rebuilds the target by applying the diff
// to the journaled state and replaying the steps on it, which is what
// Apply verified the plan does before it wrote the record.
//
// On-disk layout: a text magic header "mcss-journal 1\n", then framed
// records — uvarint payload length, 4-byte little-endian IEEE CRC32 of the
// payload, payload. The payload is: one type byte, varint epoch, varint
// step, uvarint-length-prefixed fingerprint, uvarint-length-prefixed body
// (the serialized plan for begin/snapshot records; the codec is injected
// as a JournalCodec because the plan document format lives in traceio,
// which imports this package).
//
// The reader distinguishes a torn tail from corruption the way etcd's WAL
// does: a record cut short by EOF is the normal artifact of a crash
// mid-write and is truncated away on the next open, while a CRC mismatch,
// an overflowing length, an unknown record type, or a fingerprint-chain
// violation is ErrCorruptJournal — the caller (allocatord) keeps the state
// recovered up to the last valid commit and enters degraded read-only
// mode. Any other read error is returned as is, and nothing is truncated.

// journalMagic is the version-bearing header line of the journal format.
const journalMagic = "mcss-journal 1\n"

// maxJournalRecord bounds one record's payload (a serialized plan can be
// large, but a length past this is garbage, not data).
const maxJournalRecord = 1 << 30

// ErrCorruptJournal reports a journal whose bytes are damaged beyond the
// torn-tail case or whose records violate the fingerprint chain.
var ErrCorruptJournal = errors.New("deploy: corrupt journal")

// RecordType tags one journal record.
type RecordType byte

const (
	// RecSnapshot checkpoints a full state (body: zero-step plan).
	RecSnapshot RecordType = 'S'
	// RecPlanBegin opens a plan application (body: the plan without its
	// target).
	RecPlanBegin RecordType = 'B'
	// RecStepDone marks step i's effect durable.
	RecStepDone RecordType = 'D'
	// RecPlanCommit closes a verified plan application.
	RecPlanCommit RecordType = 'C'
	// RecPlanAbort closes a failed application; the base state stands.
	RecPlanAbort RecordType = 'A'
)

// Record is one decoded journal entry.
type Record struct {
	Type RecordType
	// Epoch tags the controller epoch the record belongs to (-1 when
	// the apply is not epoch-driven).
	Epoch int64
	// Step is the 0-based step index of a step-done record.
	Step int64
	// Fingerprint is the base fingerprint (begin/abort), the target
	// fingerprint (commit), or the checkpointed state's fingerprint
	// (snapshot).
	Fingerprint string
	// Body is the serialized plan of begin/snapshot records.
	Body []byte
}

// JournalCodec serializes plans for begin/snapshot record bodies. The
// implementation lives in traceio (the mcss-plan document), injected here
// to keep the deploy → traceio dependency one-way. EncodePlan receives
// plan-begin bodies as plans without a Target (see Plan.TargetRegions),
// and DecodePlan must return them the same way.
type JournalCodec struct {
	EncodePlan func(*Plan) ([]byte, error)
	DecodePlan func([]byte) (*Plan, error)
}

func (c JournalCodec) valid() bool { return c.EncodePlan != nil && c.DecodePlan != nil }

// JournalHooks observe journal activity (metrics wiring). Nil fields are
// skipped.
type JournalHooks struct {
	// Appended fires per record with its framed size in bytes.
	Appended func(bytes int)
	// Fsync fires per fsync with its duration in seconds.
	Fsync func(seconds float64)
	// Compacted fires when Compact replaces the file with a snapshot.
	Compacted func()
}

// JournalOptions tunes a Journal.
type JournalOptions struct {
	// SyncEvery batches fsyncs: step-done records force one only every
	// SyncEvery appends (default 1 — every record durable). Record
	// types that move the fingerprint chain (begin, commit, abort,
	// snapshot) always sync.
	SyncEvery int
	// Hooks observe appends, fsyncs, and compactions.
	Hooks JournalHooks
}

// Journal is an append-only apply journal bound to one file. It is not
// safe for concurrent use; the daemon's single apply loop owns it.
type Journal struct {
	path     string
	f        *os.File
	codec    JournalCodec
	opts     JournalOptions
	unsynced int
	// head is the fingerprint of the state the journal's records
	// establish: the last snapshot or commit, or the empty cluster.
	head string
}

// OpenJournal opens (or creates) the journal at path for appending. An
// existing file is scanned first: a torn tail is truncated away, while
// corruption fails with ErrCorruptJournal and a failed read with its
// error, leaving the file as it is — recover what the prefix allows with
// RecoverJournalFile before deciding to discard the file.
func OpenJournal(path string, codec JournalCodec, opts JournalOptions) (*Journal, error) {
	if !codec.valid() {
		return nil, errors.New("deploy: journal codec must encode and decode plans")
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 1
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{path: path, f: f, codec: codec, opts: opts, head: EmptyState().Fingerprint()}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		if _, err := f.WriteString(journalMagic); err != nil {
			f.Close()
			return nil, err
		}
		if err := j.sync(); err != nil {
			f.Close()
			return nil, err
		}
		return j, nil
	}
	recs, validLen, torn, err := scanJournal(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	for _, r := range recs {
		if r.Type == RecSnapshot || r.Type == RecPlanCommit {
			j.head = r.Fingerprint
		}
	}
	if torn {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	if validLen < int64(len(journalMagic)) {
		// The crash tore the magic itself; rewrite the header.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.WriteString(journalMagic); err != nil {
			f.Close()
			return nil, err
		}
		if err := j.sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// AppendSnapshot checkpoints a state as a zero-step plan (see Snapshot).
func (j *Journal) AppendSnapshot(epoch int64, snap *Plan) error {
	body, err := j.codec.EncodePlan(snap)
	if err != nil {
		return err
	}
	fp := snap.TargetFingerprint()
	if err := j.append(Record{Type: RecSnapshot, Epoch: epoch, Fingerprint: fp, Body: body}, true); err != nil {
		return err
	}
	j.head = fp
	return nil
}

// AppendPlanBegin records the intent to apply plan at epoch. The body
// leaves the target out (see Recover), so the plan's diff must rebuild its
// target workload from the base and its steps must replay to its target
// allocation — Apply verifies both before it calls this.
func (j *Journal) AppendPlanBegin(epoch int64, plan *Plan) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	body, err := j.codec.EncodePlan(plan.withoutTarget())
	if err != nil {
		return err
	}
	return j.append(Record{Type: RecPlanBegin, Epoch: epoch, Fingerprint: plan.BaseFingerprint, Body: body}, true)
}

// AppendStepDone records that step i's effect landed. Durability is
// batched per SyncEvery.
func (j *Journal) AppendStepDone(epoch int64, step int) error {
	return j.append(Record{Type: RecStepDone, Epoch: epoch, Step: int64(step)}, false)
}

// AppendPlanCommit records the verified completion of the open plan.
func (j *Journal) AppendPlanCommit(epoch int64, targetFingerprint string) error {
	if err := j.append(Record{Type: RecPlanCommit, Epoch: epoch, Fingerprint: targetFingerprint}, true); err != nil {
		return err
	}
	j.head = targetFingerprint
	return nil
}

// AppendPlanAbort records a clean failure of the open plan; the base
// state remains current.
func (j *Journal) AppendPlanAbort(epoch int64, baseFingerprint string) error {
	return j.append(Record{Type: RecPlanAbort, Epoch: epoch, Fingerprint: baseFingerprint}, true)
}

func (j *Journal) append(rec Record, forceSync bool) error {
	framed := frameRecord(encodeRecord(rec))
	if _, err := j.f.Write(framed); err != nil {
		return err
	}
	if j.opts.Hooks.Appended != nil {
		j.opts.Hooks.Appended(len(framed))
	}
	j.unsynced++
	if forceSync || j.unsynced >= j.opts.SyncEvery {
		return j.sync()
	}
	return nil
}

// Sync forces any batched records to disk.
func (j *Journal) Sync() error {
	if j.unsynced == 0 {
		return nil
	}
	return j.sync()
}

func (j *Journal) sync() error {
	start := time.Now()
	if err := j.f.Sync(); err != nil {
		return err
	}
	if j.opts.Hooks.Fsync != nil {
		j.opts.Hooks.Fsync(time.Since(start).Seconds())
	}
	j.unsynced = 0
	return nil
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// Compact atomically replaces the journal with a single snapshot record
// checkpointing snap's target state at epoch: the replacement is written
// to a temp file, fsynced, and renamed over the journal, so a crash at
// any point leaves either the old journal or the new one — never a mix.
func (j *Journal) Compact(epoch int64, snap *Plan) error {
	body, err := j.codec.EncodePlan(snap)
	if err != nil {
		return err
	}
	tmp := j.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	fp := snap.TargetFingerprint()
	rec := frameRecord(encodeRecord(Record{
		Type: RecSnapshot, Epoch: epoch, Fingerprint: fp, Body: body,
	}))
	if _, err := f.WriteString(journalMagic); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(rec); err != nil {
		f.Close()
		return err
	}
	start := time.Now()
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if j.opts.Hooks.Fsync != nil {
		j.opts.Hooks.Fsync(time.Since(start).Seconds())
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, j.path); err != nil {
		return err
	}
	if err := syncDir(filepath.Dir(j.path)); err != nil {
		return err
	}
	old := j.f
	nf, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := nf.Seek(0, io.SeekEnd); err != nil {
		nf.Close()
		return err
	}
	j.f = nf
	j.unsynced = 0
	j.head = fp
	old.Close()
	if j.opts.Hooks.Compacted != nil {
		j.opts.Hooks.Compacted()
	}
	if j.opts.Hooks.Appended != nil {
		j.opts.Hooks.Appended(len(rec))
	}
	return nil
}

// syncDir fsyncs a directory so a rename survives power loss.
// Filesystems that refuse directory fsync (some return EINVAL) are
// tolerated — the rename itself already happened.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// encodeRecord serializes one record payload (unframed).
func encodeRecord(rec Record) []byte {
	buf := make([]byte, 0, 16+len(rec.Fingerprint)+len(rec.Body))
	buf = append(buf, byte(rec.Type))
	buf = binary.AppendVarint(buf, rec.Epoch)
	buf = binary.AppendVarint(buf, rec.Step)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Fingerprint)))
	buf = append(buf, rec.Fingerprint...)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Body)))
	buf = append(buf, rec.Body...)
	return buf
}

// frameRecord wraps a payload with its length and CRC.
func frameRecord(payload []byte) []byte {
	framed := binary.AppendUvarint(nil, uint64(len(payload)))
	framed = binary.LittleEndian.AppendUint32(framed, crc32.ChecksumIEEE(payload))
	return append(framed, payload...)
}

// decodeRecord parses one payload produced by encodeRecord.
func decodeRecord(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, fmt.Errorf("%w: empty record", ErrCorruptJournal)
	}
	rec := Record{Type: RecordType(payload[0])}
	switch rec.Type {
	case RecSnapshot, RecPlanBegin, RecStepDone, RecPlanCommit, RecPlanAbort:
	default:
		return Record{}, fmt.Errorf("%w: unknown record type %#x", ErrCorruptJournal, payload[0])
	}
	rest := payload[1:]
	var n int
	rec.Epoch, n = binary.Varint(rest)
	if n <= 0 {
		return Record{}, fmt.Errorf("%w: bad epoch varint", ErrCorruptJournal)
	}
	rest = rest[n:]
	rec.Step, n = binary.Varint(rest)
	if n <= 0 {
		return Record{}, fmt.Errorf("%w: bad step varint", ErrCorruptJournal)
	}
	rest = rest[n:]
	fpLen, n := binary.Uvarint(rest)
	if n <= 0 || fpLen > uint64(len(rest)-n) {
		return Record{}, fmt.Errorf("%w: bad fingerprint length", ErrCorruptJournal)
	}
	rest = rest[n:]
	rec.Fingerprint = string(rest[:fpLen])
	rest = rest[fpLen:]
	bodyLen, n := binary.Uvarint(rest)
	if n <= 0 || bodyLen != uint64(len(rest)-n) {
		return Record{}, fmt.Errorf("%w: bad body length", ErrCorruptJournal)
	}
	rec.Body = append([]byte(nil), rest[n:]...)
	return rec, nil
}

// ReadJournal parses a journal stream. It returns the valid records, a
// flag reporting whether a torn tail (the normal artifact of a crash
// mid-write, a record cut short by the end of the stream) was dropped,
// and ErrCorruptJournal when the stream is damaged beyond that, or the
// reader's own error when a read fails otherwise — the records decoded
// before the damage are still returned, so recovery can proceed to the
// last valid point.
func ReadJournal(r io.Reader) ([]Record, bool, error) {
	recs, _, torn, err := scanJournal(r)
	return recs, torn, err
}

// ReadJournalFile reads the journal at path (see ReadJournal).
func ReadJournalFile(path string) ([]Record, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	return ReadJournal(f)
}

// scanJournal decodes records and tracks the byte offset of the last
// fully-valid record, so OpenJournal can truncate a torn tail in place.
// Only a read cut short by the end of the input is a torn tail; an
// overflowing length is corruption, and any other read error is returned
// as is.
func scanJournal(r io.Reader) (recs []Record, validLen int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	// tail classifies a failed read: short at EOF is torn.
	tail := func(err error) ([]Record, int64, bool, error) {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return recs, validLen, true, nil
		}
		return recs, validLen, false, err
	}
	magic := make([]byte, len(journalMagic))
	if _, rerr := io.ReadFull(br, magic); rerr != nil {
		// A crash between create and the end of the magic write leaves
		// nothing to recover and nothing corrupt.
		return tail(rerr)
	}
	if string(magic) != journalMagic {
		return nil, 0, false, fmt.Errorf("%w: bad magic %q", ErrCorruptJournal, magic)
	}
	validLen = int64(len(journalMagic))
	for {
		// Peek one byte to distinguish a clean end from a torn frame.
		if _, perr := br.Peek(1); perr == io.EOF {
			return recs, validLen, false, nil
		} else if perr != nil {
			return recs, validLen, false, perr
		}
		lr := byteReader{br: br}
		length, lerr := binary.ReadUvarint(&lr)
		if lerr != nil {
			if lr.err != nil {
				return tail(lr.err)
			}
			return recs, validLen, false, fmt.Errorf("%w: record %d: length: %v", ErrCorruptJournal, len(recs), lerr)
		}
		if length > maxJournalRecord {
			return recs, validLen, false, fmt.Errorf("%w: record length %d", ErrCorruptJournal, length)
		}
		var crcBuf [4]byte
		if _, rerr := io.ReadFull(br, crcBuf[:]); rerr != nil {
			return tail(rerr)
		}
		payload := make([]byte, length)
		if _, rerr := io.ReadFull(br, payload); rerr != nil {
			return tail(rerr)
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crcBuf[:]) {
			return recs, validLen, false, fmt.Errorf("%w: CRC mismatch in record %d", ErrCorruptJournal, len(recs))
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			return recs, validLen, false, derr
		}
		recs = append(recs, rec)
		validLen += int64(uvarintLen(length)) + 4 + int64(length)
	}
}

// byteReader adapts a bufio.Reader for ReadUvarint, keeping the read
// error so an overflowing varint can be told from a short or failed read.
type byteReader struct {
	br  *bufio.Reader
	err error
}

func (b *byteReader) ReadByte() (byte, error) {
	c, err := b.br.ReadByte()
	if err != nil {
		b.err = err
	}
	return c, err
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Recovery is the outcome of replaying a journal: the reconstructed
// durable state, the epoch it corresponds to, and the in-flight plan (if
// a begin record has no matching commit or abort) with the first step
// whose step-done record is missing.
type Recovery struct {
	// State is the last durable state (EmptyState when the journal has
	// no snapshot or commit).
	State *State
	// Epoch is the epoch of the last snapshot or committed plan
	// (-1 when none).
	Epoch int64
	// InFlight is the plan whose begin record has no commit/abort, nil
	// when the journal closed cleanly.
	InFlight *Plan
	// InFlightEpoch is the in-flight plan's epoch tag.
	InFlightEpoch int64
	// NextStep is the first step of InFlight whose effect is not known
	// durable — resume execution here.
	NextStep int
	// Committed counts committed plans, Snapshots snapshot records,
	// Records all records replayed.
	Committed, Snapshots, Records int
	// Model is the pricing model carried by the last decoded plan —
	// what a recovered daemon prices the state with (zero when the
	// journal holds no plan).
	Model pricing.Model
	// Torn reports a truncated tail was dropped (normal after a crash).
	Torn bool
}

// Recover replays journal records into a Recovery, verifying the
// fingerprint chain: every begin/snapshot must extend the state the
// previous records establish, and every commit must match its plan's
// target. A plan-begin body without the target gets it rebuilt from the
// state it extends (see rebuildTarget); a full plan document, as earlier
// journals wrote, is used as is. A violation returns the recovery built
// so far along with ErrCorruptJournal.
func Recover(records []Record, torn bool, codec JournalCodec) (*Recovery, error) {
	if !codec.valid() {
		return nil, errors.New("deploy: journal codec must encode and decode plans")
	}
	rec := &Recovery{State: EmptyState(), Epoch: -1, InFlightEpoch: -1, Torn: torn}
	// head is the fingerprint of rec.State, verified when it was set.
	head := rec.State.Fingerprint()
	fail := func(format string, args ...any) (*Recovery, error) {
		return rec, fmt.Errorf("%w: record %d: %v", ErrCorruptJournal, rec.Records, fmt.Errorf(format, args...))
	}
	for _, r := range records {
		switch r.Type {
		case RecSnapshot:
			if rec.InFlight != nil {
				return fail("snapshot inside an open plan")
			}
			snap, err := codec.DecodePlan(r.Body)
			if err != nil {
				return fail("snapshot body: %v", err)
			}
			if snap.Target == nil {
				return fail("snapshot body has no target")
			}
			if fp := snap.TargetFingerprint(); fp != r.Fingerprint {
				return fail("snapshot fingerprint %s, plan target %s", r.Fingerprint, fp)
			}
			rec.State = snap.Target
			head = r.Fingerprint
			rec.Epoch = r.Epoch
			rec.Model = snap.Model
			rec.Snapshots++
		case RecPlanBegin:
			if rec.InFlight != nil {
				return fail("plan-begin inside an open plan")
			}
			plan, err := codec.DecodePlan(r.Body)
			if err != nil {
				return fail("plan body: %v", err)
			}
			if plan.BaseFingerprint != r.Fingerprint {
				return fail("begin fingerprint %s, plan base %s", r.Fingerprint, plan.BaseFingerprint)
			}
			if head != plan.BaseFingerprint {
				return fail("plan base %s does not extend state %s", plan.BaseFingerprint, head)
			}
			if plan.Target == nil {
				if err := rebuildTarget(plan, rec.State); err != nil {
					return fail("plan body does not rebuild its target: %v", err)
				}
			}
			rec.InFlight = plan
			rec.InFlightEpoch = r.Epoch
			rec.Model = plan.Model
			rec.NextStep = 0
		case RecStepDone:
			if rec.InFlight == nil {
				return fail("step-done outside a plan")
			}
			if r.Step != int64(rec.NextStep) {
				return fail("step-done %d, expected %d", r.Step, rec.NextStep)
			}
			if rec.NextStep >= len(rec.InFlight.Steps) {
				return fail("step-done %d past plan's %d steps", r.Step, len(rec.InFlight.Steps))
			}
			rec.NextStep++
		case RecPlanCommit:
			if rec.InFlight == nil {
				return fail("plan-commit outside a plan")
			}
			if fp := rec.InFlight.TargetFingerprint(); fp != r.Fingerprint {
				return fail("commit fingerprint %s, plan target %s", r.Fingerprint, fp)
			}
			rec.State = rec.InFlight.Target
			head = r.Fingerprint
			rec.Epoch = r.Epoch
			rec.Committed++
			rec.InFlight = nil
			rec.InFlightEpoch = -1
			rec.NextStep = 0
		case RecPlanAbort:
			if rec.InFlight == nil {
				return fail("plan-abort outside a plan")
			}
			if fp := rec.InFlight.BaseFingerprint; fp != r.Fingerprint {
				return fail("abort fingerprint %s, plan base %s", r.Fingerprint, fp)
			}
			rec.InFlight = nil
			rec.InFlightEpoch = -1
			rec.NextStep = 0
		default:
			return fail("unknown record type %#x", byte(r.Type))
		}
		rec.Records++
	}
	return rec, nil
}

// rebuildTarget gives a plan read from a plan-begin body its target, the
// way Apply verified the plan reaches it from base: the diff applied to
// the base workload, tagged with the body's region tags (or untagged when
// it has none), and the steps replayed on the base allocation.
func rebuildTarget(p *Plan, base *State) error {
	w, err := dynamic.ApplyDelta(base.Workload, p.Diff.Delta)
	if err != nil {
		return err
	}
	if r := p.TargetRegions; r != nil {
		if w, err = w.WithRegions(r.Topics, r.Subscribers); err != nil {
			return err
		}
	} else {
		w = w.WithoutRegions()
	}
	alloc, err := dynamic.ReplaySteps(base.Allocation, w, p.MessageBytes, p.Steps)
	if err != nil {
		return err
	}
	alloc.Fleet = p.Fleet
	p.Target, p.TargetRegions = NewState(w, alloc), nil
	return p.Validate()
}

// RecoverJournalFile reads and replays the journal at path. On
// corruption the partial recovery (state up to the last valid record) is
// returned together with ErrCorruptJournal so the caller can serve it
// read-only.
func RecoverJournalFile(path string, codec JournalCodec) (*Recovery, error) {
	records, torn, rerr := ReadJournalFile(path)
	rec, err := Recover(records, torn, codec)
	if err != nil {
		return rec, err
	}
	if rerr != nil {
		return rec, rerr
	}
	return rec, nil
}
