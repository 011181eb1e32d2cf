package pq

import "ppanns/internal/vec"

// CodeStore is the arena of PQ codes, one M-byte row per point, addressed
// by the same slots as the DCE ciphertext arena and published under the
// vec.Rows discipline. A code row is never data of its own: it is the
// codebook's encoding of the point's SAP row, written by EncodeAll or
// EncodeInto — a serving tier derives each appended row from the SAP row
// it appends beside it — so the arena can always be recomputed from the
// SAP column and the codebook. Its slack keeps the AVX2 scan's 32-bit code
// gathers inside the allocation.
//
// A pending deletion keeps its code until a fold gathers the live slots
// without it: the serving tier masks the pending set at query time, so the
// row is unreachable, not a correctness hazard.
type CodeStore = vec.Rows[byte]
