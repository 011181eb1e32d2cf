// Durability walks the write-ahead-log lifecycle: a server is created
// with a WAL directory, absorbs writes that are fsync-durable before they
// are acknowledged, is abandoned without any save (standing in for a
// crash), and is then recovered with OpenServer — every acknowledged
// write intact, at the same epoch, answering queries identically.
//
//	go run ./examples/durability
package main

import (
	"fmt"
	"log"
	"os"

	"ppanns"
	"ppanns/internal/dataset"
)

func main() {
	const k = 5
	data := dataset.SIFTLike(2000, 3, 7)
	walDir, err := os.MkdirTemp("", "ppanns-wal-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(walDir)

	// The data owner encrypts as usual; the server is constructed with a
	// WAL directory, which seeds it with a checkpoint of the initial
	// database. SyncPolicy{Every: 1} means Insert/Delete return only
	// after their log record is fsynced.
	owner, err := ppanns.NewDataOwner(ppanns.Params{Dim: data.Dim, Beta: 120, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	edb, err := owner.EncryptDatabase(data.Train)
	if err != nil {
		log.Fatal(err)
	}
	server, err := ppanns.NewServerWith(edb, ppanns.ServerOptions{
		WALDir:  walDir,
		WALSync: ppanns.SyncPolicy{Every: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	user, err := ppanns.NewUser(owner.UserKey())
	if err != nil {
		log.Fatal(err)
	}

	// Mutate: a handful of inserts and one delete, each durable at ack.
	for i := 0; i < 8; i++ {
		payload, err := owner.EncryptVector(data.Train[i*3])
		if err != nil {
			log.Fatal(err)
		}
		if _, err := server.Insert(payload); err != nil {
			log.Fatal(err)
		}
	}
	if err := server.Delete(2); err != nil {
		log.Fatal(err)
	}
	tok, err := user.Query(data.Queries[0])
	if err != nil {
		log.Fatal(err)
	}
	before, err := server.Search(tok, k, ppanns.SearchOptions{KPrime: 16 * k})
	if err != nil {
		log.Fatal(err)
	}
	st := server.WALStats()
	fmt.Printf("before crash: epoch %d, %d records; wal %d segments / %d B (sync %s)\n",
		server.Epoch(), server.Len(), st.Segments, st.Bytes, st.Policy)
	fmt.Printf("query 0: %v\n", before)

	// "Crash": walk away without Flush or Save. The in-memory server is
	// gone; only the WAL directory survives.
	server = nil

	// Recover: replay the log over its last checkpoint.
	recovered, stats, err := ppanns.OpenServer(walDir, ppanns.ServerOptions{
		WALSync: ppanns.SyncPolicy{Every: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()
	fmt.Printf("recovered:    checkpoint %s (epoch %d) + %d replayed → epoch %d\n",
		stats.Checkpoint, stats.CheckpointEpoch, stats.Replayed, stats.Epoch)

	after, err := recovered.Search(tok, k, ppanns.SearchOptions{KPrime: 16 * k})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query 0: %v\n", after)
	for i := range before {
		if before[i] != after[i] {
			log.Fatalf("recovered results diverge at rank %d: %v vs %v", i, before, after)
		}
	}
	if recovered.Epoch() != 9 || recovered.Deleted(2) != true {
		log.Fatalf("recovered state wrong: epoch %d, Deleted(2)=%v", recovered.Epoch(), recovered.Deleted(2))
	}
	fmt.Println("recovered server is identical: zero acknowledged writes lost")
}
