package core

import (
	"fmt"
	"io"
	"math"
	"slices"

	"ppanns/internal/dce"
	"ppanns/internal/dcpe"
	"ppanns/internal/frame"
	"ppanns/internal/index"
	"ppanns/internal/pq"
	"ppanns/internal/vec"
)

// userKeyMagic opens a user key file (Figure 1 step 0), generation 1:
//
//	magic "PPANNSU1" | SAP key (dcpe) | DCE key (dce)
//
// Each key is its package's own magic-led encoding in the frame package's
// little-endian codec, sized by its own dimension. Files written by
// builds that used gob carry no magic and are refused.
const userKeyMagic = "PPANNSU1"

// maxUserKeyBytes bounds what LoadUserKey reads: a DCE key is three
// matrices of at most frame.MaxLen bytes each, two quarter-size ones and
// a few vectors, so four limits hold any key a build can write.
const maxUserKeyBytes = 4 * frame.MaxLen

// SaveUserKey writes the user's key material (Figure 1 step 0) to w.
func SaveUserKey(w io.Writer, k *UserKey) error {
	if k == nil || k.DCE == nil || k.SAP == nil {
		return fmt.Errorf("core: incomplete user key")
	}
	b, err := k.SAP.AppendBinary([]byte(userKeyMagic))
	if err != nil {
		return err
	}
	if b, err = k.DCE.AppendBinary(b); err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// LoadUserKey reads key material written by SaveUserKey. The input is
// read as it arrives, up to maxUserKeyBytes, so nothing is sized by what
// the file claims; each key then checks its own lengths against the bytes
// that are really there.
func LoadUserKey(r io.Reader) (*UserKey, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxUserKeyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("core: reading user key: %w", err)
	}
	if len(data) > maxUserKeyBytes {
		return nil, fmt.Errorf("core: user key file exceeds %d bytes", maxUserKeyBytes)
	}
	fr := frame.NewReader(data)
	if !fr.Magic(userKeyMagic) {
		return nil, fmt.Errorf("core: not a user key file of this build (no %q magic; older builds wrote gob): re-key with ppanns-dbtool encrypt", userKeyMagic)
	}
	k := new(UserKey)
	if k.SAP, err = dcpe.ReadKey(fr); err != nil {
		return nil, err
	}
	if k.DCE, err = dce.ReadKey(fr); err != nil {
		return nil, err
	}
	if err := fr.Done(); err != nil {
		return nil, fmt.Errorf("core: user key: %w", err)
	}
	return k, nil
}

// The database file, PPANNSD8, is one internal/frame stream:
//
//	magic "PPANNSD8" | backend tag: length u8, name
//	dim, id space, records: int64 — stated once; no section repeats them
//	ids: one i32 per record, strictly increasing, below the id space —
//	  the one statement of liveness
//	ciphertexts: per record 4·ctDim f64, ctDim = dce.CiphertextDim(dim)
//	SAP rows: per record dim f64
//	PQ flag u8 | the PQ section when it is 1 (internal/pq)
//	the backend's index section, topology only (internal/hnsw, internal/ivf)
//	CRC32 of every byte before it: u32
//
// Each column is written once, in its own section, slot by slot, and only
// live records have a slot: a deleted record's bytes are nowhere in the
// file. The sections come in this order so that every run the record count
// scales is allocated after the ids section has paid for it. There is one
// reader; files of the earlier generations (PPANNSD2–7) are refused with
// index.ErrOldFormat.
const edbMagic = "PPANNSD8"

// Save writes the encrypted database as a PPANNSD8 file. One CRC32 covers
// every byte, so storage corruption anywhere — a record, a SAP row, a
// link — fails the load instead of silently moving an answer.
func (e *EncryptedDatabase) Save(w io.Writer) error {
	backend := e.Backend
	if backend == "" {
		backend = index.Default
	}
	if len(backend) > 255 {
		return fmt.Errorf("core: backend name %q too long", backend)
	}
	live := e.Live()
	if e.SAP == nil || e.SAP.Len() != live || e.SAP.Dim() != e.Dim || e.DCE.Len() != live || e.Index.Len() != live {
		return fmt.Errorf("core: the SAP column, the ciphertext store and the index do not all hold %d records of dimension %d", live, e.Dim)
	}
	enc := frame.NewEncoder(w)
	enc.ByteRun([]byte(edbMagic))
	enc.U8(uint8(len(backend)))
	enc.ByteRun([]byte(backend))
	enc.Int(e.Dim)
	enc.Int(e.n)
	enc.Int(live)
	enc.Int32Run(e.ids)
	e.DCE.Save(enc)
	e.SAP.Save(enc)
	enc.U8(boolByte(e.PQ != nil))
	if e.PQ != nil {
		e.PQ.Save(enc)
	}
	e.Index.Save(enc)
	return enc.Close()
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// idsChunk bounds each step of the ids column's read: the column grows by
// at most this many ids beyond those that have arrived.
const idsChunk = 1 << 16

// LoadEncryptedDatabase reads a database written by Save. The bytes are
// untrusted — a file on disk, a checkpoint after a crash — so every header
// field is checked before it sizes anything, and the runs that scale with
// the record count are allocated as their bytes arrive: a file that lies
// about its size fails at end of input. The ids must rise strictly and stay
// below the id space. The PQ and index sections are read for the dimension
// and the SAP column the sections before them state, and the trailer must
// match every byte read.
func LoadEncryptedDatabase(r io.Reader) (*EncryptedDatabase, error) {
	d := frame.NewDecoder(r)
	magic := make([]byte, len(edbMagic))
	d.ByteRun(magic)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}
	switch string(magic) {
	case edbMagic:
	case "PPANNSD2", "PPANNSD3", "PPANNSD4", "PPANNSD5", "PPANNSD6", "PPANNSD7":
		return nil, fmt.Errorf("core: %s database: %w", magic, index.ErrOldFormat)
	default:
		return nil, fmt.Errorf("core: bad magic %q", magic)
	}
	tag := make([]byte, d.U8())
	d.ByteRun(tag)
	dim, n, live := d.Int(), d.Int(), d.Int()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("core: reading header: %w", err)
	}
	backend := string(tag)
	if err := index.Lookup(backend); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Ids are int32s, and live records of 4·ctDim floats must be
	// addressable.
	if dim <= 0 || dim > math.MaxInt32 || n <= 0 || n > math.MaxInt32 || live < 0 || live > n || live > math.MaxInt/(8*4*dce.CiphertextDim(dim)) {
		return nil, fmt.Errorf("core: implausible header dim=%d id space %d records %d", dim, n, live)
	}
	e := &EncryptedDatabase{Dim: dim, Backend: backend, n: n, ids: make([]int32, 0, min(live, idsChunk))}
	for len(e.ids) < live && d.Err() == nil {
		at := len(e.ids)
		e.ids = slices.Grow(e.ids, min(live-at, idsChunk))[:at+min(live-at, idsChunk)]
		d.Int32Run(e.ids[at:])
		for j := at; j < len(e.ids) && d.Err() == nil; j++ {
			if id := e.ids[j]; id < 0 || int(id) >= n || j > 0 && id <= e.ids[j-1] {
				d.Fail(fmt.Errorf("record %d has id %d: ids must rise strictly below the id space %d", j, id, n))
			}
		}
	}
	e.DCE = dce.LoadStore(d, dce.CiphertextDim(dim), live)
	e.SAP = vec.LoadDataset(d, dim, live)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("core: reading the ids, ciphertext and SAP sections: %w", err)
	}
	switch flag := d.U8(); {
	case d.Err() != nil:
		return nil, fmt.Errorf("core: reading PQ flag: %w", d.Err())
	case flag == 1:
		pqs, err := pq.Load(d, dim, live)
		if err != nil {
			return nil, fmt.Errorf("core: loading PQ tier: %w", err)
		}
		e.PQ = pqs
	case flag != 0:
		return nil, fmt.Errorf("core: corrupt PQ flag byte %d", flag)
	}
	idx, err := index.Load(backend, d, e.SAP)
	if err != nil {
		return nil, fmt.Errorf("core: loading %s index: %w", backend, err)
	}
	e.Index = idx
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("core: database file: %w", err)
	}
	return e, nil
}
