// Connected components on an RMAT graph with vertex delegates and
// asynchronous-broadcast label synchronization — the Section V-B
// application. The example prints the component-size histogram, the
// number of delegates the skewed degree distribution produced, and how
// many broadcasts the delegate synchronization consumed per pass.
//
//	go run ./examples/connectedcomp                # 2^10 vertices on 4x4 simulated ranks
//	go run ./examples/connectedcomp -scale 8 -nodes 2 -cores 2
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"

	"ygm/internal/apps"
	"ygm/internal/graph"
	"ygm/internal/machine"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("connectedcomp", flag.ContinueOnError)
	scale := fs.Int("scale", 10, "graph has 2^scale vertices")
	edges := fs.Int("edges", 1024, "edges generated per rank")
	nodes := fs.Int("nodes", 4, "simulated compute nodes")
	cores := fs.Int("cores", 4, "cores per node")
	frac := fs.Float64("delegate-frac", 0.05, "delegate threshold as a fraction of the expected max degree")
	if err := fs.Parse(args); err != nil {
		return err
	}
	world := *nodes * *cores
	cfg := apps.ConnectedComponentsConfig{
		Mailbox:      ygm.Options{Scheme: machine.NodeRemote, Capacity: 512},
		Scale:        *scale,
		EdgesPerRank: *edges,
		Params:       graph.Graph500,
		DelegateFrac: *frac,
		Seed:         13,
	}
	results := make([]*apps.ConnectedComponentsResult, world)
	report, err := transport.Run(transport.NewConfig(machine.New(*nodes, *cores), transport.WithSeed(13)),
		func(p *transport.Proc) (err error) {
			results[p.Rank()], err = apps.ConnectedComponents(p, cfg)
			return err
		})
	if err != nil {
		return err
	}

	// Assemble the global labeling and histogram component sizes.
	sizes := map[uint64]int{}
	for v := uint64(0); v < 1<<*scale; v++ {
		sizes[results[graph.Owner(v, world)].Labels[graph.LocalID(v, world)]]++
	}
	var comps []int
	for _, s := range sizes {
		comps = append(comps, s)
	}
	slices.Sort(comps)
	slices.Reverse(comps)
	var broadcasts uint64
	for _, r := range results {
		broadcasts += r.Broadcasts
	}
	fmt.Fprintf(stdout, "graph: 2^%d vertices, %d edges across %d ranks (Graph500 RMAT)\n", *scale, *edges*world, world)
	fmt.Fprintf(stdout, "components: %d (largest %d vertices)\n", len(comps), comps[0])
	fmt.Fprintf(stdout, "top 5 component sizes: %v\n", comps[:min(5, len(comps))])
	fmt.Fprintf(stdout, "delegates: %d, passes: %d, delegate-sync broadcasts: %d\n",
		results[0].Delegates, results[0].Passes, broadcasts)
	fmt.Fprintf(stdout, "simulated time: %.1f us, utilization %.0f%%\n",
		report.Makespan()*1e6, 100*report.Utilization())
	return nil
}
