package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

// The database file, PPANNSD5: magic, backend tag (one length byte + name),
// three int64s (dim, record count n, DCE component length), the ciphertext
// section — n presence bytes, then n records of 4·ctDim float64s (zeroed
// runs for tombstones) under one streaming CRC32 — a PQ-presence byte
// followed by the self-framing PQSTORE1 section when the database carries a
// compressed filter tier, and the backend's self-describing index payload.
// There is one reader; files of the earlier generations (PPANNSD2–4) are
// refused with index.ErrOldFormat.
const edbMagic = "PPANNSD5"

// serializeChunk is the staging-buffer size (in float64s) for bulk arena
// I/O: large enough to amortize the encode loop, small enough to stay
// cache-resident.
const serializeChunk = 8192

// Save writes the encrypted database (backend tag, DCE ciphertext arena,
// PQ tier when present, index payload) in the PPANNSD5 format. The arena
// travels under a streaming CRC32 so storage corruption is detected at load
// time instead of silently flipping comparison results.
func (e *EncryptedDatabase) Save(w io.Writer) error {
	backend := e.Backend
	if backend == "" {
		backend = index.Default
	}
	if len(backend) > 255 {
		return fmt.Errorf("core: backend name %q too long", backend)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(edbMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(len(backend))); err != nil {
		return err
	}
	if _, err := bw.WriteString(backend); err != nil {
		return err
	}
	n := e.DCE.Len()
	ctDim := e.DCE.CtDim()
	for _, v := range []int64{int64(e.Dim), int64(n), int64(ctDim)} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	// Presence bitmap: tombstoned records stay in the arena as zeroed
	// runs, so the bulk section's geometry is independent of deletions.
	for _, live := range e.DCE.LiveMask() {
		b := byte(0)
		if live {
			b = 1
		}
		if err := bw.WriteByte(b); err != nil {
			return err
		}
	}
	// Bulk arena write with a running checksum, one record at a time.
	// Dead records are written as zeroed runs regardless of their
	// in-memory bytes, so no deleted ciphertext material can reach disk.
	arena := e.DCE.Raw()
	liveMask := e.DCE.LiveMask()
	stride := 4 * ctDim
	buf := make([]byte, stride*8)
	zeros := make([]byte, stride*8)
	var crc uint32
	for i := 0; i < n; i++ {
		chunk := zeros
		if liveMask[i] {
			rec := arena[i*stride : (i+1)*stride]
			for j, f := range rec {
				binary.LittleEndian.PutUint64(buf[j*8:], math.Float64bits(f))
			}
			chunk = buf
		}
		crc = crc32.Update(crc, crc32.IEEETable, chunk)
		if _, err := bw.Write(chunk); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, crc); err != nil {
		return err
	}
	// PQ tier: one presence byte, then the self-framing PQSTORE1 section.
	pqFlag := byte(0)
	if e.PQ != nil {
		pqFlag = 1
	}
	if err := bw.WriteByte(pqFlag); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if e.PQ != nil {
		if err := e.PQ.Save(w); err != nil {
			return fmt.Errorf("core: saving PQ tier: %w", err)
		}
	}
	return e.Index.Save(w)
}

// LoadEncryptedDatabase reads a database written by Save. The bytes are
// untrusted — a file on disk, a checkpoint after a crash — so every header
// field is checked against the others before it sizes anything, and the
// sections that scale with the record count are allocated as their bytes
// arrive: a file that lies about its size fails at end of input. The PQ
// section and the index payload are then held to the dimension and record
// count the ciphertext section paid for.
func LoadEncryptedDatabase(r io.Reader) (*EncryptedDatabase, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(edbMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}
	switch string(magic) {
	case edbMagic:
	case "PPANNSD2", "PPANNSD3", "PPANNSD4":
		return nil, fmt.Errorf("core: %s database: %w", magic, index.ErrOldFormat)
	default:
		return nil, fmt.Errorf("core: bad magic %q", magic)
	}
	nameLen, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("core: reading backend tag: %w", err)
	}
	nameBytes := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBytes); err != nil {
		return nil, fmt.Errorf("core: reading backend tag: %w", err)
	}
	backend := string(nameBytes)
	if err := index.Lookup(backend); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var head [3]int64
	for i := range head {
		if err := binary.Read(br, binary.LittleEndian, &head[i]); err != nil {
			return nil, fmt.Errorf("core: reading header: %w", err)
		}
	}
	// The DCE component length is a function of the dimension (2·d+16, d
	// rounded up to even: dce.Key.CiphertextDim), and n records of 4·ctDim
	// floats must be addressable.
	if head[0] <= 0 || head[0] > math.MaxInt32 || head[2] != 2*(head[0]+head[0]%2)+16 ||
		head[1] <= 0 || head[1] > math.MaxInt/(8*4*head[2]) {
		return nil, fmt.Errorf("core: implausible header dim=%d n=%d ctDim=%d", head[0], head[1], head[2])
	}
	dim, n, ctDim := int(head[0]), int(head[1]), int(head[2])
	store, err := readArena(br, n, ctDim)
	if err != nil {
		return nil, err
	}
	e := &EncryptedDatabase{Dim: dim, Backend: backend, DCE: store}
	pqFlag, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("core: reading PQ flag: %w", err)
	}
	switch pqFlag {
	case 0:
	case 1:
		pqs, err := pq.Load(br, dim, n)
		if err != nil {
			return nil, fmt.Errorf("core: loading PQ tier: %w", err)
		}
		e.PQ = pqs
	default:
		return nil, fmt.Errorf("core: corrupt PQ flag byte %d", pqFlag)
	}
	idx, err := index.Load(backend, br, dim, n)
	if err != nil {
		return nil, fmt.Errorf("core: loading %s index: %w", backend, err)
	}
	// Cross-check the index's tombstones against the ciphertext section's
	// (the loader has already held its shape to the header's), so
	// corruption that survives both payloads' own checks still fails at
	// load time instead of as a deleted record served by a query.
	if idx.Len() != store.Live() {
		return nil, fmt.Errorf("core: index holds %d live vectors, ciphertext store %d", idx.Len(), store.Live())
	}
	e.Index = idx
	return e, nil
}

// readArena reads the ciphertext section: n presence bytes, n records, the
// CRC32 of the record bytes. Both buffers start at one staging chunk and
// double (up to the declared size) as input arrives, so a header that lies
// about n costs at most about twice what the file really holds.
func readArena(br io.Reader, n, ctDim int) (*dce.CiphertextStore, error) {
	buf := make([]byte, serializeChunk*8)
	live := make([]bool, 0, min(n, len(buf)))
	for len(live) < n {
		chunk := buf[:min(n-len(live), len(buf))]
		if _, err := io.ReadFull(br, chunk); err != nil {
			return nil, fmt.Errorf("core: reading presence bitmap: %w", err)
		}
		for _, b := range chunk {
			if b > 1 {
				return nil, fmt.Errorf("core: corrupt presence byte %d for record %d", b, len(live))
			}
			live = append(live, b == 1)
		}
	}
	total := n * 4 * ctDim
	arena := make([]float64, 0, min(total, serializeChunk))
	var crc uint32
	for len(arena) < total {
		m := min(total-len(arena), serializeChunk)
		chunk := buf[:m*8]
		if _, err := io.ReadFull(br, chunk); err != nil {
			return nil, fmt.Errorf("core: reading ciphertext arena: %w", err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, chunk)
		if len(arena)+m > cap(arena) {
			arena = append(make([]float64, 0, min(2*cap(arena), total)), arena...)
		}
		off := len(arena)
		arena = arena[:off+m]
		for j := 0; j < m; j++ {
			arena[off+j] = math.Float64frombits(binary.LittleEndian.Uint64(chunk[j*8:]))
		}
	}
	var stored uint32
	if err := binary.Read(br, binary.LittleEndian, &stored); err != nil {
		return nil, fmt.Errorf("core: reading arena checksum: %w", err)
	}
	if crc != stored {
		return nil, fmt.Errorf("core: ciphertext arena corrupted (crc %08x, want %08x)", crc, stored)
	}
	return dce.StoreFromRaw(ctDim, arena, live)
}
