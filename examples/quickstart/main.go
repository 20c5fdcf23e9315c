// Quickstart: the smallest complete YGM program. It runs a 2-node,
// 2-core cluster; every rank mails a greeting to rank 0, rank 0 answers
// with an asynchronous broadcast, and everyone waits for global
// quiescence with WaitEmpty — the mailbox workflow of the paper's
// Section IV.
//
// By default the cluster is simulated in one process. The same program
// runs on every transport backend:
//
//	go run ./examples/quickstart                   # virtual-time simulator
//	go run ./examples/quickstart -wire=local       # in-process, real time
//	go run ./examples/quickstart -wire=tcp -spawn  # 4 real OS processes over localhost
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"

	"ygm/internal/machine"
	"ygm/internal/transport"
	"ygm/internal/wirecli"
	"ygm/internal/ygm"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("quickstart", flag.ContinueOnError)
	var wires wirecli.Flags
	wires.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	topo := machine.New(2, 2) // 2 nodes x 2 cores = 4 ranks
	if err := wires.Validate(topo.WorldSize()); err != nil {
		return err
	}
	if done, err := wires.Launch(topo.WorldSize(), args); done {
		return err
	}
	wire, err := wires.NewWire()
	if err != nil {
		return err
	}

	// Handlers run on the receiving rank's goroutine, so each rank
	// appends to its own slot and no lock is needed.
	events := make([][]string, topo.WorldSize())
	report, err := transport.Run(transport.NewConfig(topo,
		transport.WithSeed(42),
		transport.WithWire(wire),
	), func(p *transport.Proc) error {
		mb := ygm.New(p, func(s ygm.Sender, payload []byte) {
			events[p.Rank()] = append(events[p.Rank()],
				fmt.Sprintf("rank %d received %q at t=%.1fus", p.Rank(), payload, p.Now()*1e6))
			// Receive callbacks may send more messages: rank 0 answers
			// each greeting with a broadcast.
			if p.Rank() == 0 && string(payload) != "ack" {
				s.Broadcast([]byte("ack"))
			}
		},
			ygm.WithScheme(machine.NLNR),
			ygm.WithExchange(ygm.LazyExchange),
			ygm.WithCapacity(16))

		if p.Rank() != 0 {
			mb.Send(0, []byte(fmt.Sprintf("hello from (%d,%d)", p.Node(), p.Core())))
		}
		mb.WaitEmpty() // collective: returns when all mail is delivered
		return nil
	})
	// Under -wire=tcp each OS process only observes its own ranks'
	// deliveries and report; rank 0 prints its local view.
	if err != nil || !wires.IsRoot() {
		return err
	}
	all := slices.Concat(events...)
	slices.Sort(all)
	for _, e := range all {
		fmt.Fprintln(stdout, e)
	}
	timeBase := "simulated"
	if report.Wall {
		timeBase = "wall"
	}
	tot := report.Totals()
	fmt.Fprintf(stdout, "\n%s makespan: %.1f us, utilization %.0f%%\n",
		timeBase, report.Makespan()*1e6, 100*report.Utilization())
	fmt.Fprintf(stdout, "mailbox traffic: %d local packets, %d remote packets\n",
		tot.DataLocalMsgs, tot.DataRemoteMsgs)
	return nil
}
