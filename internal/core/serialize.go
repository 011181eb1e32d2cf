package core

import (
	"fmt"
	"io"
	"math"

	"ppanns/internal/dce"
	"ppanns/internal/dcpe"
	"ppanns/internal/frame"
	"ppanns/internal/index"
	"ppanns/internal/pq"
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

// The database file, PPANNSD6, is one internal/frame stream:
//
//	magic "PPANNSD6" | backend tag: length u8, name
//	dim, n, ctDim: int64 — stated once; no section repeats them
//	presence: n bytes, 1 live, 0 dead — the one statement of liveness
//	ciphertexts: n records of 4·ctDim f64 (a dead record's are zeros)
//	PQ flag u8 | the PQ section when it is 1 (internal/pq)
//	the backend's index section (internal/hnsw, internal/ivf)
//	CRC32 of every byte before it: u32
//
// The sections come in this order so that every run the record count
// scales is allocated after the ciphertext section has paid for n. There
// is one reader; files of the earlier generations (PPANNSD2–5) are refused
// with index.ErrOldFormat.
const edbMagic = "PPANNSD6"

// Save writes the encrypted database as a PPANNSD6 file. One CRC32 covers
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
	live := e.DCE.LiveMask()
	for id, ok := range live {
		if _, indexed := e.Index.Vector(id); indexed != ok {
			return fmt.Errorf("core: record %d: live %v in the ciphertext store, %v in the index", id, ok, indexed)
		}
	}
	enc := frame.NewEncoder(w)
	enc.ByteRun([]byte(edbMagic))
	enc.U8(uint8(len(backend)))
	enc.ByteRun([]byte(backend))
	enc.Int(e.Dim)
	enc.Int(len(live))
	enc.Int(e.DCE.CtDim())
	for _, ok := range live {
		enc.U8(boolByte(ok))
	}
	e.DCE.Save(enc)
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

// LoadEncryptedDatabase reads a database written by Save. The bytes are
// untrusted — a file on disk, a checkpoint after a crash — so every header
// field is checked against the others before it sizes anything, and the
// runs that scale with the record count are allocated as their bytes
// arrive: a file that lies about its size fails at end of input. The PQ
// and index sections are read for the dimension and the liveness the
// header and the presence bytes state, and the trailer must match every
// byte read.
func LoadEncryptedDatabase(r io.Reader) (*EncryptedDatabase, error) {
	d := frame.NewDecoder(r)
	magic := make([]byte, len(edbMagic))
	d.ByteRun(magic)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}
	switch string(magic) {
	case edbMagic:
	case "PPANNSD2", "PPANNSD3", "PPANNSD4", "PPANNSD5":
		return nil, fmt.Errorf("core: %s database: %w", magic, index.ErrOldFormat)
	default:
		return nil, fmt.Errorf("core: bad magic %q", magic)
	}
	tag := make([]byte, d.U8())
	d.ByteRun(tag)
	dim, n, ctDim := d.Int(), d.Int(), d.Int()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("core: reading header: %w", err)
	}
	backend := string(tag)
	if err := index.Lookup(backend); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// The DCE component length is a function of the dimension (2·d+16, d
	// rounded up to even: dce.Key.CiphertextDim), and n records of 4·ctDim
	// floats must be addressable.
	if dim <= 0 || dim > math.MaxInt32 || ctDim != 2*(dim+dim%2)+16 || n <= 0 || n > math.MaxInt/(8*4*ctDim) {
		return nil, fmt.Errorf("core: implausible header dim=%d n=%d ctDim=%d", dim, n, ctDim)
	}
	live := make([]bool, 0, min(n, 1<<16))
	for len(live) < n && d.Err() == nil {
		b := d.U8()
		if b > 1 {
			d.Fail(fmt.Errorf("corrupt presence byte %d for record %d", b, len(live)))
		}
		live = append(live, b == 1)
	}
	e := &EncryptedDatabase{Dim: dim, Backend: backend, DCE: dce.LoadStore(d, ctDim, live)}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("core: reading the ciphertext section: %w", err)
	}
	switch flag := d.U8(); {
	case d.Err() != nil:
		return nil, fmt.Errorf("core: reading PQ flag: %w", d.Err())
	case flag == 1:
		pqs, err := pq.Load(d, dim, n)
		if err != nil {
			return nil, fmt.Errorf("core: loading PQ tier: %w", err)
		}
		e.PQ = pqs
	case flag != 0:
		return nil, fmt.Errorf("core: corrupt PQ flag byte %d", flag)
	}
	idx, sap, err := index.Load(backend, d, dim, live)
	if err != nil {
		return nil, fmt.Errorf("core: loading %s index: %w", backend, err)
	}
	e.Index, e.SAP = idx, sap
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("core: database file: %w", err)
	}
	return e, nil
}
