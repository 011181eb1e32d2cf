package pq

import "ppanns/internal/vec"

// CodeStore is the arena of PQ codes, one M-byte row per point, addressed
// by the same ids as the DCE ciphertext arena and published under the
// vec.Rows discipline. A code row is never data of its own: it is the
// codebook's encoding of the point's SAP row, written by EncodeAll or
// EncodeInto — a serving tier derives each appended row from the SAP row
// it appends beside it — so the arena can always be recomputed from the
// SAP column and the codebook. Its slack keeps the AVX2 scan's 32-bit code
// gathers inside the allocation.
//
// Tombstoned ids keep their (stale) codes until a fold zeroes them: the
// filter index never visits deleted points and the serving tier re-checks
// tombstones on merge, so a dead row's bytes are unreachable garbage, not
// a correctness hazard.
type CodeStore = vec.Rows[byte]
