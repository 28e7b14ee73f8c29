package core_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"

	"github.com/pem-go/pem/internal/core"
	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/secchan"
	"github.com/pem-go/pem/internal/transport"
)

// ExampleNewStandaloneParty runs one private window across four parties
// that share no state, once per crypto backend: each has its own TCP
// listener on loopback and an end-to-end encrypted channel to every peer,
// the cmd/pem-agent deployment shape. Under the hybrid backend each pair
// agrees its mask seed in the key exchange itself.
func ExampleNewStandaloneParty() {
	agents := []market.Agent{
		{ID: "bakery", K: 85, Epsilon: 0.90},
		{ID: "school", K: 75, Epsilon: 0.85},
		{ID: "clinic", K: 95, Epsilon: 0.90},
		{ID: "depot", K: 80, Epsilon: 0.88},
	}
	inputs := []market.WindowInput{
		{Generation: 0.45, Load: 0.15},
		{Generation: 0.02, Load: 0.35},
		{Generation: 0.00, Load: 0.22},
		{Generation: 0.38, Load: 0.10},
	}
	for _, backend := range []string{core.BackendPaillier, core.BackendHybrid} {
		outcomes := standaloneWindow(backend, agents, inputs)
		fmt.Printf("%s: %s market at %.2f cents/kWh\n", backend, outcomes[0].Kind, outcomes[0].Price)
		for _, out := range outcomes {
			for _, tr := range out.Trades {
				fmt.Printf("%s -> %s: %.3f kWh\n", tr.Seller, tr.Buyer, tr.Energy)
			}
		}
	}
	// Output:
	// paillier: extreme market at 90.00 cents/kWh
	// bakery -> school: 0.171 kWh
	// depot -> school: 0.159 kWh
	// bakery -> clinic: 0.114 kWh
	// depot -> clinic: 0.106 kWh
	// hybrid: extreme market at 90.00 cents/kWh
	// bakery -> school: 0.171 kWh
	// depot -> school: 0.159 kWh
	// bakery -> clinic: 0.114 kWh
	// depot -> clinic: 0.106 kWh
}

// standaloneWindow runs window 0 across one standalone party per agent on
// the given backend and returns their outcomes.
func standaloneWindow(backend string, agents []market.Agent, inputs []market.WindowInput) []*core.PartyOutcome {
	// One listener per agent; the key exchange plays the role of the paper's
	// published public keys and keys every pair's sealed channel.
	nodes := make([]*transport.TCPNode, len(agents))
	peers := make([]string, len(agents))
	for i, a := range agents {
		node, err := transport.ListenTCP(a.ID, "127.0.0.1:0", nil)
		if err != nil {
			log.Fatal(err)
		}
		defer node.Close()
		nodes[i], peers[i] = node, a.ID
	}
	for i := range nodes {
		for j := range nodes {
			if i != j {
				nodes[i].SetPeer(agents[j].ID, nodes[j].Addr())
			}
		}
	}

	seed := int64(7) // deterministic for the example; omit in production
	cfg := core.Config{KeyBits: 256, Seed: &seed, CryptoBackend: backend}
	outcomes, errs := make([]*core.PartyOutcome, len(agents)), make([]error, len(agents))
	var wg sync.WaitGroup
	for i, a := range agents {
		wg.Add(1)
		go func() {
			defer wg.Done()
			party, err := core.NewStandaloneParty(cfg, a, nodes[i])
			if err != nil {
				errs[i] = err
				return
			}
			defer party.Close()
			if errs[i] = party.ExchangeKeys(context.Background(), peers); errs[i] == nil {
				party.ReplaceConn(secchan.New(nodes[i], party.PairKey))
				outcomes[i], errs[i] = party.RunTradingWindow(context.Background(), 0, inputs[i])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		log.Fatal(err)
	}
	return outcomes
}
