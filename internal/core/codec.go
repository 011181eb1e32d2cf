package core

import (
	"fmt"

	"ppanns/internal/dce"
	"ppanns/internal/frame"
)

// Binary forms of the core values that cross the wire, in the frame
// package's little-endian codec: internal/transport writes its payloads
// with these (MemoryStats and WALStats inside its info answer), and the
// write-ahead log's insert record wraps AppendInsert.
// The readers hold every count to the bytes that remain before they
// allocate; shapes are checked against the database by whoever applies
// the value, as for an in-process call.

// AppendQuery appends a search request:
//
//	[k i64] [KPrime EfSearch Refine FilterDist i64]
//	[SAP: count u32, f64s] [trapdoor: count u32, f64s]
//
// A nil token (or trapdoor) is written empty and reads back nil.
func AppendQuery(b []byte, tok *QueryToken, k int, o SearchOptions) []byte {
	for _, v := range []int{k, o.KPrime, o.EfSearch, int(o.Refine), int(o.FilterDist)} {
		b = frame.AppendInt(b, v)
	}
	var sap, q []float64
	if tok != nil {
		sap = tok.SAP
		if tok.Trapdoor != nil {
			q = tok.Trapdoor.Q
		}
	}
	return frame.AppendFloats(frame.AppendFloats(b, sap), q)
}

// ReadQuery reads what AppendQuery wrote.
func ReadQuery(r *frame.Reader) (tok *QueryToken, k int, o SearchOptions) {
	k = r.Int()
	o.KPrime = r.Int()
	o.EfSearch = r.Int()
	o.Refine = RefineMode(r.Int())
	o.FilterDist = FilterDistMode(r.Int())
	sap := r.Floats()
	q := r.Floats()
	if sap != nil || q != nil {
		tok = &QueryToken{SAP: sap}
		if q != nil {
			tok.Trapdoor = &dce.Trapdoor{Q: q}
		}
	}
	return tok, k, o
}

// AppendInsert appends an insert payload:
//
//	[SAP: count u32, f64s] [DCE: count u32 = 4·ctDim, P1|P2|P3|P4 f64s]
//
// A nil payload (or ciphertext) is written empty and reads back nil.
func AppendInsert(b []byte, p *InsertPayload) []byte {
	var sap, rec []float64
	if p != nil {
		sap, rec = p.SAP, p.DCE
	}
	return frame.AppendFloats(frame.AppendFloats(b, sap), rec)
}

// ReadInsert reads what AppendInsert wrote. The payload owns its storage.
func ReadInsert(r *frame.Reader) *InsertPayload {
	sap := r.Floats()
	rec := r.Floats()
	if len(rec)%4 != 0 {
		r.Fail(fmt.Errorf("a ciphertext of %d floats is not 4 components", len(rec)))
	}
	if sap == nil && rec == nil {
		return nil
	}
	return &InsertPayload{SAP: sap, DCE: rec}
}

// AppendShardResult appends a search's merge answer:
//
//	[epoch u64] [ids: count u32, i64s]
//	[ctDim u32] [the ids' DCE records: len(ids) × 4·ctDim f64s]
//
// with ctDim 0 when there are no records. The records are written straight
// out of the views in Recs — for a local answer, the snapshot's arena,
// which a published store never writes within its length.
func AppendShardResult(b []byte, res *ShardResult) []byte {
	b = frame.AppendU64(b, res.Epoch)
	b = frame.AppendInts(b, res.IDs)
	if len(res.Recs) == 0 {
		return frame.AppendU32(b, 0)
	}
	b = frame.AppendU32(b, uint32(len(res.Recs[0])/4))
	for _, rec := range res.Recs {
		b = frame.AppendFloatRun(b, rec)
	}
	return b
}

// ReadShardResult reads what AppendShardResult wrote, the records as Recs
// views into one arena.
func ReadShardResult(r *frame.Reader) ShardResult {
	var res ShardResult
	res.Epoch = r.U64()
	res.IDs = r.Ints()
	ctDim := int(r.U32())
	if ctDim == 0 || r.Err() != nil {
		return res
	}
	// Below MaxLen/32 the run's length cannot overflow; FloatRun then
	// holds it to the bytes that are really there.
	if ctDim > frame.MaxLen/32 {
		r.Fail(fmt.Errorf("implausible ciphertext dimension %d", ctDim))
		return res
	}
	rec := 4 * ctDim
	arena := r.FloatRun(len(res.IDs) * rec)
	if arena == nil {
		return res
	}
	res.Recs = make([][]float64, len(res.IDs))
	for i := range res.Recs {
		res.Recs[i] = arena[i*rec : (i+1)*rec : (i+1)*rec]
	}
	return res
}

// AppendMemoryStats appends [N DeltaBytes i64] [SAP DCE PQCodes PQBook f64].
// Live is not written: the info answer that carries the stats states it
// beside them, and its reader fills it in.
func AppendMemoryStats(b []byte, m *MemoryStats) []byte {
	b = frame.AppendInt(frame.AppendInt(b, m.N), m.DeltaBytes)
	for _, v := range []float64{m.SAP, m.DCE, m.PQCodes, m.PQBook} {
		b = frame.AppendF64(b, v)
	}
	return b
}

// ReadMemoryStats reads what AppendMemoryStats wrote.
func ReadMemoryStats(r *frame.Reader) MemoryStats {
	m := MemoryStats{N: r.Int(), DeltaBytes: r.Int()}
	m.SAP, m.DCE, m.PQCodes, m.PQBook = r.F64(), r.F64(), r.F64(), r.F64()
	return m
}

// AppendWALStats appends [present u8] and, for a non-nil w, [Dir Policy
// Checkpoint: count u32, bytes] [Segments Bytes Appended Synced
// CheckpointEpoch CheckpointGen u64].
func AppendWALStats(b []byte, w *WALStats) []byte {
	if w == nil {
		return frame.AppendU8(b, 0)
	}
	b = frame.AppendU8(b, 1)
	for _, s := range []string{w.Dir, w.Policy, w.Checkpoint} {
		b = frame.AppendString(b, s)
	}
	for _, v := range []uint64{uint64(w.Segments), uint64(w.Bytes), w.Appended, w.Synced, w.CheckpointEpoch, w.CheckpointGen} {
		b = frame.AppendU64(b, v)
	}
	return b
}

// ReadWALStats reads what AppendWALStats wrote.
func ReadWALStats(r *frame.Reader) *WALStats {
	switch r.U8() {
	case 0:
		return nil
	case 1:
	default:
		r.Fail(fmt.Errorf("corrupt WAL presence byte"))
		return nil
	}
	w := &WALStats{Dir: r.String(), Policy: r.String(), Checkpoint: r.String()}
	w.Segments, w.Bytes = r.Int(), int64(r.U64())
	w.Appended, w.Synced, w.CheckpointEpoch, w.CheckpointGen = r.U64(), r.U64(), r.U64(), r.U64()
	return w
}
