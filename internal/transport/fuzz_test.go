package transport

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"runtime"
	"testing"

	"ppanns/internal/core"
	"ppanns/internal/dce"
	"ppanns/internal/frame"
)

// fuzzMessages returns a request of every op and a response of every op.
func fuzzMessages() ([]*request, []*response) {
	tok := &core.QueryToken{SAP: []float64{1, 2, 3}, Trapdoor: &dce.Trapdoor{Q: []float64{4, 5, 6, 7}}}
	reqs := []*request{
		{op: opSearch, tok: tok, k: 5, opt: core.SearchOptions{KPrime: 40, Refine: core.RefineNone}},
		{op: opSearchShard, tok: tok, k: 5, opt: core.SearchOptions{EfSearch: 40}},
		{op: opInsert, ins: &core.InsertPayload{SAP: []float64{1, 2, 3}, DCE: []float64{1, 2, 3, 4, 5, 6, 7, 8}}},
		{op: opDelete, id: 3},
		{op: opLen},
		{op: opInfo},
	}
	resps := []*response{
		{op: opError, err: "no"},
		{op: opSearch, ids: []int{3, 1, 4}},
		{op: opSearchShard, shard: core.ShardResult{IDs: []int{1, 0}, Epoch: 9, Recs: [][]float64{{8, 7, 6, 5, 4, 3, 2, 1}, {1, 2, 3, 4, 5, 6, 7, 8}}}},
		{op: opSearchShard, shard: core.ShardResult{Epoch: 3}},
		{op: opInsert, id: 600},
		{op: opDelete},
		{op: opLen, n: 601, live: 599},
		{op: opInfo, info: Info{Backend: "hnsw", N: 3, Live: 2, Dim: 3, Epoch: 4, Memory: core.MemoryStats{N: 3, Live: 2, SAP: 24, DCE: 256},
			WAL: &core.WALStats{Dir: "w", Policy: "every=1", Segments: 1, Bytes: 99, Appended: 5, Synced: 5, Checkpoint: "c", CheckpointEpoch: 2, CheckpointGen: 1}}},
	}
	return reqs, resps
}

// fuzzSeeds returns a frame of every message fuzzMessages lists, the
// stream a gob client opens with, and a header past the limit.
func fuzzSeeds(t testing.TB) [][]byte {
	reqs, resps := fuzzMessages()
	var seeds [][]byte
	for i, req := range reqs {
		b, err := frame.AppendEnvelope(nil, protoVersion, req.op, uint64(i+1), func(b []byte) []byte { return appendRequest(b, req) })
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	for i, resp := range resps {
		b, err := frame.AppendEnvelope(nil, protoVersion, resp.op, uint64(i+1), func(b []byte) []byte { return appendResponse(b, resp) })
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	var g bytes.Buffer
	if err := gob.NewEncoder(&g).Encode(&gobRequest{Proto: 6, Seq: 1, Op: "len"}); err != nil {
		t.Fatal(err)
	}
	huge := rawFrame(protoVersion, opLen, 1, nil)
	huge[3] = 0x7f
	return append(seeds, g.Bytes(), huge)
}

// resealed is a copy of data with the CRC of every whole envelope in it
// recomputed, as a peer that checksums honestly would have written it.
func resealed(data []byte) []byte {
	data = bytes.Clone(data)
	for at := 0; at+frame.EnvelopeOverhead <= len(data); {
		r := frame.NewReader(data[at:])
		n, gen, tag, word := r.U32(), r.U8(), r.U8(), r.U64()
		if n > frame.MaxLen || int(n) > len(data)-at-frame.EnvelopeOverhead {
			break
		}
		body := data[at+frame.EnvelopeOverhead-4 : at+frame.EnvelopeOverhead-4+int(n)]
		env, _ := frame.AppendEnvelope(nil, gen, tag, word, func(b []byte) []byte { return append(b, body...) })
		at += copy(data[at:], env)
	}
	return data
}

// decodeStream runs data through both decoders: every frame the server's
// read loop would accept is decoded as a request, and as the response to
// a call of every op.
func decodeStream(data []byte) {
	fr := frame.NewEnvelopeReader(bytes.NewReader(data), protoVersion)
	for {
		op, _, p, err := fr.Next()
		if err != nil {
			return
		}
		decodeRequest(op, p)
		for _, want := range []byte{opSearch, opSearchShard, opInsert, opDelete, opLen, opInfo} {
			decodeResponse(want, op, p)
		}
	}
}

// FuzzFrame: the bytes either decoder reads come from an untrusted peer.
// Whatever they are, every frame is refused with an error or decoded —
// no panic — and no input allocates more than frame.MaxLen + 64 KiB. Each
// input is resealed first, so a mutation reaches the op decoders instead
// of stopping at the checksum.
func FuzzFrame(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = resealed(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decodeStream(data)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > frame.MaxLen+64<<10 {
			t.Fatalf("a %d-byte input allocated %d bytes", len(data), got)
		}
	})
}

// TestFrameRoundTrip: every op's request and response decode back to
// what was encoded, so the codec is whole and the fuzzer starts from
// inputs that reach the deep decoders.
func TestFrameRoundTrip(t *testing.T) {
	reqs, resps := fuzzMessages()
	for _, req := range reqs {
		b, err := frame.AppendEnvelope(nil, protoVersion, req.op, 7, func(b []byte) []byte { return appendRequest(b, req) })
		if err != nil {
			t.Fatal(err)
		}
		op, seq, p, err := frame.NewEnvelopeReader(bytes.NewReader(b), protoVersion).Next()
		if err != nil || seq != 7 || op != req.op {
			t.Fatalf("%s request: header op %d seq %d, %v", opName(req.op), op, seq, err)
		}
		got, err := decodeRequest(op, p)
		if err != nil || !reflect.DeepEqual(got, req) {
			t.Fatalf("%s request: decoded %+v, %v; want %+v", opName(req.op), got, err, req)
		}
	}
	for _, resp := range resps {
		b, err := frame.AppendEnvelope(nil, protoVersion, resp.op, 7, func(b []byte) []byte { return appendResponse(b, resp) })
		if err != nil {
			t.Fatal(err)
		}
		op, _, p, err := frame.NewEnvelopeReader(bytes.NewReader(b), protoVersion).Next()
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeResponse(resp.op, op, p)
		if resp.op == opError {
			if err == nil || err.Error() != resp.err {
				t.Fatalf("error response decoded as %v", err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, *resp) {
			t.Fatalf("%s response: decoded %+v, %v; want %+v", opName(resp.op), got, err, *resp)
		}
	}
}
