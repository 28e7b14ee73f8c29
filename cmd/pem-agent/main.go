// Command pem-agent runs a single PEM agent as its own process,
// communicating with peers over TCP with end-to-end encrypted channels.
// It is the multi-process deployment shape of the paper's per-container
// agents: start one pem-agent per smart home, point them at each other,
// and they will exchange keys and trade through the private protocols.
//
// Example three-agent market on one machine:
//
//	pem-agent -id solar  -listen 127.0.0.1:7001 \
//	    -peers 'town=127.0.0.1:7002,ev=127.0.0.1:7003' \
//	    -gen 0.4 -load 0.1 -windows 3
//	pem-agent -id town -listen 127.0.0.1:7002 \
//	    -peers 'solar=127.0.0.1:7001,ev=127.0.0.1:7003' \
//	    -gen 0.0 -load 0.3 -windows 3
//	pem-agent -id ev -listen 127.0.0.1:7003 \
//	    -peers 'solar=127.0.0.1:7001,town=127.0.0.1:7002' \
//	    -gen 0.1 -load 0.2 -windows 3
//
// Each agent generates its keys once at startup and runs one handshake: a
// frame to every peer carrying its Paillier and X25519 public keys
// (trust-on-first-use; production deployments would pin them). The X25519
// agreement keys both the hybrid mask seeds and, unless -insecure-transport,
// the AES-GCM channels every window then runs over. Agents may start in any
// order: each waits until every peer listens before it sends.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"maps"
	"net"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"github.com/pem-go/pem/internal/core"
	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/secchan"
	"github.com/pem-go/pem/internal/transport"
)

func main() {
	if err := run(os.Args[1:], nil, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pem-agent:", err)
		os.Exit(1)
	}
}

// run runs one agent over node, or, when node is nil, over a node it
// starts on -listen; either way it closes the node before returning.
func run(args []string, node *transport.TCPNode, stdout io.Writer) error {
	fs := flag.NewFlagSet("pem-agent", flag.ContinueOnError)
	id := fs.String("id", "", "this agent's unique ID (required)")
	listen := fs.String("listen", "127.0.0.1:0", "TCP listen address")
	peersFlag := fs.String("peers", "", "comma-separated peer list: id=host:port,...")
	gen := fs.Float64("gen", 0, "generation per window (kWh)")
	load := fs.Float64("load", 0, "load per window (kWh)")
	batt := fs.Float64("battery", 0, "battery charge (+) / discharge (-) per window (kWh)")
	k := fs.Float64("k", 85, "preference parameter k")
	epsilon := fs.Float64("epsilon", 0.9, "battery loss coefficient")
	windows := fs.Int("windows", 1, "number of trading windows to run")
	keyBits := fs.Int("keybits", 1024, "Paillier key size")
	plain := fs.Bool("insecure-transport", false, "skip the AES-GCM channel layer (debugging only)")
	timeout := fs.Duration("timeout", 10*time.Minute, "overall deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("-id is required")
	}
	peers, err := parsePeers(*peersFlag)
	if err != nil {
		return err
	}
	if len(peers) == 0 {
		return fmt.Errorf("-peers is required (id=addr,...)")
	}

	if node == nil {
		if node, err = transport.ListenTCP(*id, *listen, nil, nil); err != nil {
			return err
		}
	}
	defer node.Close()
	for pid, addr := range peers {
		node.SetPeer(pid, addr)
	}
	fmt.Fprintf(stdout, "[%s] listening on %s\n", *id, node.Addr())

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// SIGINT/SIGTERM drain rather than kill: the in-flight window runs to
	// completion (dying mid-protocol would strand every peer in the
	// coalition waiting on our ring position), then the agent exits before
	// launching the next one. A second signal force-kills via the default
	// handler, which stopSignals restores as soon as the first arrives.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case <-sigCtx.Done():
			fmt.Fprintf(os.Stderr, "[%s] signal received: draining current window, then exiting (signal again to abort)\n", *id)
			stopSignals()
		case <-finished:
		}
	}()

	agent := market.Agent{ID: *id, K: *k, Epsilon: *epsilon}
	party, err := core.NewStandaloneParty(core.Config{KeyBits: *keyBits}, agent, node)
	if err != nil {
		return err
	}
	defer party.Close()
	if err := awaitPeers(ctx, peers); err != nil {
		return err
	}
	if err := party.ExchangeKeys(ctx, slices.Collect(maps.Keys(peers))); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "[%s] keys exchanged with %d peers (%d-bit Paillier)\n", *id, len(peers), *keyBits)
	if !*plain {
		party.ReplaceConn(secchan.New(node, party.PairKey))
		fmt.Fprintf(stdout, "[%s] secure channels keyed\n", *id)
	}

	input := market.WindowInput{Generation: *gen, Load: *load, Battery: *batt}
	for w := 0; w < *windows; w++ {
		if sigCtx.Err() != nil {
			fmt.Fprintf(stdout, "[%s] drained: exiting after %d of %d windows\n", *id, w, *windows)
			return nil
		}
		start := time.Now()
		out, err := party.RunTradingWindow(ctx, w, input)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "[%s] window %d: %s market, price %.2f c/kWh, %d sellers / %d buyers (%s)\n",
			*id, w, out.Kind, out.Price, out.SellerCount, out.BuyerCount,
			time.Since(start).Round(time.Millisecond))
		for _, tr := range out.Trades {
			fmt.Fprintf(stdout, "[%s]   trade: %s -> %s  %.4f kWh for %.2f cents\n",
				*id, tr.Seller, tr.Buyer, tr.Energy, tr.Payment)
		}
	}
	return nil
}

// parsePeers parses "id=addr,id=addr".
func parsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	if s == "" {
		return peers, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return nil, fmt.Errorf("bad peer entry %q (want id=host:port)", part)
		}
		peers[kv[0]] = kv[1]
	}
	return peers, nil
}

// awaitPeers waits until every peer accepts a TCP connection, so agents
// started one at a time all reach their first send; the protocol's own sends
// then fail fast.
func awaitPeers(ctx context.Context, peers map[string]string) error {
	var d net.Dialer
	for pid, addr := range peers {
		for {
			c, err := d.DialContext(ctx, "tcp", addr)
			if err == nil {
				c.Close()
				break
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("peer %s not listening: %w", pid, err)
			case <-time.After(200 * time.Millisecond):
			}
		}
	}
	return nil
}
