// Daemon: drive the scheduler as a long-lived service (DESIGN.md §15).
// Starts an in-process daemon on an ephemeral port — exactly what cmd/mhsd
// wraps behind flags — then plays an HTTP client against it: stream flow
// batches to POST /v1/flows, poll GET /v1/epochs while the epoch loop
// delivers them, and print the delivered/ψ summary.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"time"

	"octopus"
)

type epochsResponse struct {
	Epoch          int                    `json:"epoch"`
	BacklogPackets int                    `json:"backlog_packets"`
	Totals         octopus.PipelineTotals `json:"totals"`
}

func main() {
	var (
		nodes   = flag.Int("n", 16, "network nodes")
		window  = flag.Int("window", 400, "window W in slots")
		delta   = flag.Int("delta", 10, "reconfiguration delay Δ in slots")
		epoch   = flag.Duration("epoch", 10*time.Millisecond, "wall-clock epoch duration")
		batches = flag.Int("batches", 5, "flow batches to stream")
		seed    = flag.Int64("seed", 42, "RNG seed for the client's flows")
	)
	flag.Parse()

	fabric := octopus.Complete(*nodes)
	srv, err := octopus.NewDaemon(octopus.DaemonOptions{
		Fabric:        fabric,
		Core:          octopus.Options{Window: *window, Delta: *delta},
		EpochDuration: *epoch,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx, ln) }()
	fmt.Printf("daemon up on %s (%d nodes, window %d, Δ %d, epoch %v)\n",
		base, *nodes, *window, *delta, *epoch)

	// Stream arrival batches the way an external controller would: each
	// batch is one POST and is admitted atomically at one epoch boundary.
	rng := rand.New(rand.NewSource(*seed))
	submitted := 0
	for b := 0; b < *batches; b++ {
		type flowReq struct {
			Src  int `json:"src"`
			Dst  int `json:"dst"`
			Size int `json:"size"`
		}
		batch := make([]flowReq, 4+rng.Intn(4))
		for i := range batch {
			src := rng.Intn(*nodes)
			dst := (src + 1 + rng.Intn(*nodes-1)) % *nodes
			batch[i] = flowReq{Src: src, Dst: dst, Size: 1 + rng.Intn(50)}
			submitted += batch[i].Size
		}
		body, _ := json.Marshal(batch)
		resp, err := http.Post(base+"/v1/flows", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		fmt.Printf("batch %d: %d flows -> %s\n", b, len(batch), resp.Status)
		time.Sleep(*epoch * 3)
	}

	// Poll the epoch feed until the backlog drains.
	var er epochsResponse
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Get(base + "/v1/epochs")
		if err != nil {
			log.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil {
			log.Fatal(err)
		}
		if er.Totals.Delivered == submitted {
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("gave up: delivered %d of %d", er.Totals.Delivered, submitted)
		}
		time.Sleep(*epoch)
	}

	cancel() // graceful shutdown: the loop drains, the server closes
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	fmt.Printf("delivered %d/%d packets over %d epochs, psi %d (shutdown clean)\n",
		er.Totals.Delivered, submitted, er.Epoch, er.Totals.Psi)
}
