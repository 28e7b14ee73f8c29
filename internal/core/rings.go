package core

import (
	"context"
	"fmt"
	"math/big"
	"sync"

	"github.com/pem-go/pem/internal/paillier"
	"github.com/pem-go/pem/internal/transport"
)

// encryptUnder encrypts m under the public key of holder, using the key's
// pre-computed blinding-factor pool when enabled (the paper's idle-time
// encryption). The pool belongs to the key and is shared by every party and
// window encrypting under it; the window number tells it whose demand a
// take is.
func (r *windowRun) encryptUnder(ctx context.Context, holder string, m *big.Int) (*paillier.Ciphertext, error) {
	pk, ok := r.dir[holder]
	if !ok {
		return nil, fmt.Errorf("no public key for %s", holder)
	}
	if !r.cfg.PreEncrypt {
		return pk.Encrypt(r.random, m)
	}
	factor, err := pk.Pool().Take(ctx, r.refill, r.window)
	if err != nil {
		return nil, err
	}
	return pk.EncryptWithFactor(m, factor)
}

// position locates this party in a fold's member order.
func (r *windowRun) position(order []string, tag string) (int, error) {
	for i, id := range order {
		if id == r.ID() {
			return i, nil
		}
	}
	return -1, fmt.Errorf("party %s not in fold %s", r.ID(), tag)
}

// foldHops is the one place the two sum topologies live — what position pos
// of order receives and where it forwards — for the Paillier fold below and
// the hybrid backend's masked fold alike: recv is called once per partial
// sum this member folds in, send once if it forwards, and the member left
// holding the total (see aggregationRoot) reports isRoot = true.
//
// Ring is the paper's sequential chain: fold the predecessor's partial,
// forward; the last member ends up with the total. Tree is a binary
// reduction: at stride s the members still active are the multiples of s;
// those at odd multiples send their partial to the even-multiple neighbour
// s positions below and drop out, the rest fold the received partial and
// continue, so after ceil(log2 n) rounds member 0 holds the total.
func (r *windowRun) foldHops(order []string, pos int, recv, send func(peer string) error) (isRoot bool, err error) {
	n := len(order)
	if r.cfg.Aggregation != AggregationTree {
		if pos > 0 {
			if err := recv(order[pos-1]); err != nil {
				return false, err
			}
		}
		if pos+1 < n {
			return false, send(order[pos+1])
		}
		return true, nil
	}
	for stride := 1; stride < n; stride *= 2 {
		if pos%(2*stride) == stride {
			return false, send(order[pos-stride])
		}
		if partner := pos + stride; partner < n {
			if err := recv(order[partner]); err != nil {
				return false, err
			}
		}
	}
	return true, nil
}

// fold is one member's side of the homomorphic accumulation used by
// Protocols 2–4: encrypt the (already fixed-point encoded) contribution
// under keyHolder's key and fold it into the running ciphertext along the
// configured topology. Every member of order must call it with identical
// arguments; the aggregation root gets the accumulated ciphertext back
// (isRoot = true), everyone else has forwarded theirs.
func (r *windowRun) fold(ctx context.Context, order []string, keyHolder, tag string, contribution *big.Int) (*paillier.Ciphertext, bool, error) {
	pos, err := r.position(order, tag)
	if err != nil {
		return nil, false, err
	}
	acc, err := r.encryptUnder(ctx, keyHolder, contribution)
	if err != nil {
		return nil, false, fmt.Errorf("encrypt %s: %w", tag, err)
	}
	pk := r.dir[keyHolder]
	var incoming paillier.Ciphertext // reused across hops
	isRoot, err := r.foldHops(order, pos, func(from string) error {
		if err := r.recvCipher(ctx, pk, &incoming, from, tag); err != nil {
			return err
		}
		return pk.AddInPlace(acc, &incoming)
	}, func(to string) error {
		return r.sendCipher(ctx, pk, acc, tag, to)
	})
	return acc, isRoot, err
}

// aggregationRoot returns the member holding the final aggregate: the last
// member of a ring chain, the first leaf of a reduction tree.
func (r *windowRun) aggregationRoot(order []string) string {
	if r.cfg.Aggregation == AggregationTree {
		return order[0]
	}
	return order[len(order)-1]
}

// without returns order with the given id removed (order is not mutated).
func without(order []string, id string) []string {
	out := make([]string, 0, len(order))
	for _, x := range order {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

// broadcast fans payload out to every listed party except self. Sends to
// distinct peers are independent, so they run concurrently — with the TCP
// transport's per-connection write locks no single slow peer delays the
// others. The first failure (by roster order) is returned after all sends
// settle.
//
// When the transport's Send provably never blocks (the in-memory bus, with
// or without fault/netem wrappers), the fan-out runs as a plain sequential
// loop instead: no goroutines, no error slice, no filtered roster copy.
// Outcomes are identical — netem draws its delay realizations per link, so
// sends to distinct peers carry the same virtual timestamps in any order.
func (r *windowRun) broadcast(ctx context.Context, to []string, tag string, payload []byte) error {
	if transport.SendNeverBlocks(r.conn) {
		for _, id := range to {
			if id == r.ID() {
				continue
			}
			if err := r.conn.Send(ctx, id, tag, payload); err != nil {
				return err
			}
		}
		return nil
	}
	peers := without(to, r.ID())
	switch len(peers) {
	case 0:
		return nil
	case 1:
		return r.conn.Send(ctx, peers[0], tag, payload)
	}
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, id := range peers {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			errs[i] = r.conn.Send(ctx, id, tag, payload)
		}(i, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
