// Clientserver deploys the paper's Figure-1 system model over real TCP, in
// one process: the data owner encrypts the database, the cloud server hosts
// it on a loopback socket, and the user sends encrypted query tokens over
// the network and gets ids back; the owner then ships one insert and one
// delete over the same connection.
//
//	go run ./examples/clientserver
//
// Across machines, the same three roles are ppanns-dbtool's encrypt, serve
// and query subcommands; split and query -addrs deploy the sharded and
// replicated tiers of internal/shard.
package main

import (
	"fmt"
	"log"
	"net"

	"ppanns"
	"ppanns/internal/core"
	"ppanns/internal/dataset"
	"ppanns/internal/transport"
)

// buildWorld plays the data owner: encrypt the corpus, return the pieces.
func buildWorld() (*dataset.Data, *ppanns.DataOwner, *ppanns.Server) {
	data := dataset.DeepLike(4000, 20, 9)
	owner, err := ppanns.NewDataOwner(ppanns.Params{Dim: data.Dim, Beta: 0.3, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	edb, err := owner.EncryptDatabase(data.Train)
	if err != nil {
		log.Fatal(err)
	}
	server, err := ppanns.NewServer(edb)
	if err != nil {
		log.Fatal(err)
	}
	return data, owner, server
}

// main runs owner, server and user in one process over a loopback socket.
func main() {
	data, owner, server := buildWorld()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go transport.Serve(l, server)
	fmt.Printf("cloud server on %s hosting %d encrypted vectors\n", l.Addr(), len(data.Train))

	user, err := ppanns.NewUser(owner.UserKey())
	if err != nil {
		log.Fatal(err)
	}
	client, err := transport.Dial(l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	gt := data.GroundTruth(10)
	var recall float64
	for i, q := range data.Queries {
		tok, err := user.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		ids, err := client.Search(tok, 10, core.SearchOptions{RatioK: 16, EfSearch: 160})
		if err != nil {
			log.Fatal(err)
		}
		recall += dataset.Recall(ids, gt[i])
	}
	fmt.Printf("Recall@10 over TCP: %.3f (%d queries)\n", recall/float64(len(data.Queries)), len(data.Queries))

	// Owner-side update shipped over the same channel.
	payload, err := owner.EncryptVector(data.Train[0])
	if err != nil {
		log.Fatal(err)
	}
	id, err := client.Insert(payload)
	if err != nil {
		log.Fatal(err)
	}
	if err := client.Delete(id); err != nil {
		log.Fatal(err)
	}
	nvec, err := client.Len()
	if err != nil {
		log.Fatal(err)
	}
	live, err := client.Live()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted duplicate of vector 0 as id %d, then deleted it; server holds %d records, %d live\n",
		id, nvec, live)
}
