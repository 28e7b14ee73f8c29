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

// ringAggregate implements the sequential homomorphic accumulation used by
// Protocols 2–4: the parties in order each fold their encrypted
// contribution into a running ciphertext, and the final product is sent to
// sink. Exactly one of the ring members starts the chain.
//
// order lists the ring members; every member must call ringAggregate with
// identical arguments. contribution is this party's plaintext (already
// fixed-point encoded); keyHolder identifies whose public key encrypts the
// chain; tag scopes the messages. Members not in order (and the sink)
// receive the result via collect instead.
func (r *windowRun) ringAggregate(ctx context.Context, order []string, keyHolder, sink, tag string, contribution *big.Int) error {
	pos := -1
	for i, id := range order {
		if id == r.ID() {
			pos = i
			break
		}
	}
	if pos == -1 {
		return fmt.Errorf("party %s not in ring %s", r.ID(), tag)
	}

	enc, err := r.encryptUnder(ctx, keyHolder, contribution)
	if err != nil {
		return fmt.Errorf("ring %s: encrypt: %w", tag, err)
	}

	acc := enc
	if pos > 0 {
		raw, err := r.conn.Recv(ctx, order[pos-1], tag)
		if err != nil {
			return fmt.Errorf("ring %s: recv: %w", tag, err)
		}
		var incoming paillier.Ciphertext
		err = incoming.UnmarshalBinary(raw)
		transport.PutFrame(raw)
		if err != nil {
			return fmt.Errorf("ring %s: decode: %w", tag, err)
		}
		if err := r.dir[keyHolder].AddInPlace(&incoming, enc); err != nil {
			return fmt.Errorf("ring %s: fold: %w", tag, err)
		}
		acc = &incoming
	}

	next := sink
	if pos+1 < len(order) {
		next = order[pos+1]
	}
	if err := r.sendCipher(ctx, r.dir[keyHolder], acc, next, tag); err != nil {
		return fmt.Errorf("ring %s: send: %w", tag, err)
	}
	return nil
}

// sendCipher serializes ct fixed-width into a pooled frame, sends it and
// recycles the frame (Send leaves buffer ownership with the caller).
func (r *windowRun) sendCipher(ctx context.Context, pk *paillier.PublicKey, ct *paillier.Ciphertext, to, tag string) error {
	buf := transport.GetFrame(pk.FixedLen())
	out, err := ct.AppendFixed(buf[:0], pk)
	if err != nil {
		transport.PutFrame(buf)
		return err
	}
	err = r.conn.Send(ctx, to, tag, out)
	transport.PutFrame(out)
	return err
}

// aggregate folds the ring members' encrypted contributions into a single
// ciphertext delivered to sink, using the configured topology: the paper's
// sequential ring (O(n) message latency) or a log-depth binary reduction
// tree. Every member must call it with identical arguments; the sink calls
// collect instead. Both topologies expose exactly the same information —
// every intermediate value is a partial sum encrypted under the sink's key.
func (r *windowRun) aggregate(ctx context.Context, order []string, keyHolder, sink, tag string, contribution *big.Int) error {
	if r.cfg.Aggregation == AggregationTree {
		acc, isRoot, err := r.foldTree(ctx, order, keyHolder, tag, contribution)
		if err != nil {
			return err
		}
		if !isRoot {
			return nil
		}
		if err := r.sendCipher(ctx, r.dir[keyHolder], acc, sink, tag); err != nil {
			return fmt.Errorf("tree %s: send: %w", tag, err)
		}
		return nil
	}
	return r.ringAggregate(ctx, order, keyHolder, sink, tag, contribution)
}

// collect is the sink side of aggregate: receive the final ciphertext from
// the topology's root member and decrypt it.
func (r *windowRun) collect(ctx context.Context, order []string, tag string) (*big.Int, error) {
	if len(order) == 0 {
		return nil, fmt.Errorf("agg %s: empty member set", tag)
	}
	raw, err := r.conn.Recv(ctx, r.aggregationRoot(order), tag)
	if err != nil {
		return nil, fmt.Errorf("agg %s: recv final: %w", tag, err)
	}
	var ct paillier.Ciphertext
	err = ct.UnmarshalBinary(raw)
	transport.PutFrame(raw)
	if err != nil {
		return nil, fmt.Errorf("agg %s: decode final: %w", tag, err)
	}
	m, err := r.key.Decrypt(&ct)
	if err != nil {
		return nil, fmt.Errorf("agg %s: decrypt: %w", tag, err)
	}
	return m, nil
}

// aggregationRoot returns the member holding the final aggregate: the last
// member of a ring chain, the first leaf of a reduction tree.
func (r *windowRun) aggregationRoot(order []string) string {
	if r.cfg.Aggregation == AggregationTree {
		return order[0]
	}
	return order[len(order)-1]
}

// foldTree is one member's side of the binary reduction tree: at stride s
// the members still active are the multiples of s; those at odd multiples
// send their partial to the even-multiple neighbour s positions below and
// drop out, the rest fold the received partial and continue. After
// ceil(log2 n) rounds member 0 holds the total and reports isRoot = true
// (with the accumulated ciphertext); everyone else has already forwarded.
func (r *windowRun) foldTree(ctx context.Context, order []string, keyHolder, tag string, contribution *big.Int) (*paillier.Ciphertext, bool, error) {
	pos := -1
	for i, id := range order {
		if id == r.ID() {
			pos = i
			break
		}
	}
	if pos == -1 {
		return nil, false, fmt.Errorf("party %s not in tree %s", r.ID(), tag)
	}
	n := len(order)

	acc, err := r.encryptUnder(ctx, keyHolder, contribution)
	if err != nil {
		return nil, false, fmt.Errorf("tree %s: encrypt: %w", tag, err)
	}
	pk := r.dir[keyHolder]
	var incoming paillier.Ciphertext // reused across strides
	for stride := 1; stride < n; stride *= 2 {
		if pos%(2*stride) == stride {
			// Odd multiple of stride: forward the partial downhill, done.
			if err := r.sendCipher(ctx, pk, acc, order[pos-stride], tag); err != nil {
				return nil, false, fmt.Errorf("tree %s: send: %w", tag, err)
			}
			return nil, false, nil
		}
		// Even multiple: fold the uphill neighbour's partial, if it exists.
		partner := pos + stride
		if partner >= n {
			continue
		}
		raw, err := r.conn.Recv(ctx, order[partner], tag)
		if err != nil {
			return nil, false, fmt.Errorf("tree %s: recv: %w", tag, err)
		}
		err = incoming.UnmarshalBinary(raw)
		transport.PutFrame(raw)
		if err != nil {
			return nil, false, fmt.Errorf("tree %s: decode: %w", tag, err)
		}
		if err := pk.AddInPlace(acc, &incoming); err != nil {
			return nil, false, fmt.Errorf("tree %s: fold: %w", tag, err)
		}
	}
	return acc, true, nil
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
