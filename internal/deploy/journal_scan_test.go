package deploy_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/traceio"
)

// failingReader yields data, then fails every read with err.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestJournalTornVersusCorrupt pins how the reader classifies a record it
// cannot read: only a read cut short by the end of the input is a torn
// tail (dropped, and truncated away by OpenJournal); an overflowing length
// varint is ErrCorruptJournal; any other read error is returned as is.
// Neither of the last two ever truncates the file.
func TestJournalTornVersusCorrupt(t *testing.T) {
	// The magic and one valid step-done record: 15 + 10 bytes.
	path := filepath.Join(t.TempDir(), "one.journal")
	j, err := traceio.OpenJournal(path, deploy.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendStepDone(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	one, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	magic, rec := one[:15], one[15:]
	if len(rec) != 10 {
		t.Fatalf("step-done record is %d bytes, want 10", len(rec))
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	errDisk := errors.New("disk read failed")

	cases := []struct {
		name    string
		input   []byte
		failAt  error // non-nil: the reader fails with it after input
		records int
		torn    bool
		corrupt bool
		readErr error
	}{
		{name: "clean", input: cat(magic, rec, rec), records: 2},
		{name: "empty file", input: nil, torn: true},
		{name: "torn magic", input: magic[:7], torn: true},
		{name: "torn length", input: cat(magic, rec, []byte{0x80}), records: 1, torn: true},
		{name: "torn crc", input: cat(magic, rec, rec[:3]), records: 1, torn: true},
		{name: "torn payload", input: cat(magic, rec, rec[:7]), records: 1, torn: true},
		{name: "overflowing length", input: cat(magic, rec, bytes.Repeat([]byte{0xff}, 11), rec), records: 1, corrupt: true},
		{name: "read error in magic", input: magic[:5], failAt: errDisk, readErr: errDisk},
		{name: "read error between records", input: cat(magic, rec), failAt: errDisk, records: 1, readErr: errDisk},
		{name: "read error in length", input: cat(magic, rec, []byte{0x80}), failAt: errDisk, records: 1, readErr: errDisk},
		{name: "read error in payload", input: cat(magic, rec, rec[:7]), failAt: errDisk, records: 1, readErr: errDisk},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var r io.Reader = bytes.NewReader(tc.input)
			if tc.failAt != nil {
				r = &failingReader{data: tc.input, err: tc.failAt}
			}
			recs, torn, err := deploy.ReadJournal(r)
			if len(recs) != tc.records || torn != tc.torn {
				t.Fatalf("read %d records, torn=%v; want %d, torn=%v (err %v)", len(recs), torn, tc.records, tc.torn, err)
			}
			switch {
			case tc.corrupt:
				if !errors.Is(err, deploy.ErrCorruptJournal) {
					t.Fatalf("err %v, want ErrCorruptJournal", err)
				}
			case tc.readErr != nil:
				if !errors.Is(err, tc.readErr) || errors.Is(err, deploy.ErrCorruptJournal) {
					t.Fatalf("err %v, want the reader's own error", err)
				}
			case err != nil:
				t.Fatalf("err %v, want none", err)
			}
			if tc.failAt != nil {
				return
			}

			// OpenJournal truncates a torn tail and nothing else.
			p := filepath.Join(t.TempDir(), "apply.journal")
			if err := os.WriteFile(p, tc.input, 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := traceio.OpenJournal(p, deploy.JournalOptions{})
			if tc.corrupt {
				if !errors.Is(err, deploy.ErrCorruptJournal) {
					t.Fatalf("open: %v, want ErrCorruptJournal", err)
				}
			} else {
				if err != nil {
					t.Fatal(err)
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
			}
			after, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			want := len(tc.input)
			if tc.torn {
				want = 15 + 10*tc.records
			}
			if len(after) != want {
				t.Fatalf("open left %d bytes of %d, want %d", len(after), len(tc.input), want)
			}
		})
	}
}
