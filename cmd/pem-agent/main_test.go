package main

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pem-go/pem/internal/transport"
)

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("a=127.0.0.1:1,b=host:2")
	if err != nil {
		t.Fatal(err)
	}
	if peers["a"] != "127.0.0.1:1" || peers["b"] != "host:2" {
		t.Errorf("parsed %v", peers)
	}
	if len(peers) != 2 {
		t.Errorf("got %d peers", len(peers))
	}
}

func TestParsePeersEmpty(t *testing.T) {
	peers, err := parsePeers("")
	if err != nil || len(peers) != 0 {
		t.Errorf("empty list: %v, %v", peers, err)
	}
}

func TestParsePeersWhitespace(t *testing.T) {
	peers, err := parsePeers(" a=x:1 , b=y:2 ")
	if err != nil {
		t.Fatal(err)
	}
	if peers["a"] != "x:1" || peers["b"] != "y:2" {
		t.Errorf("parsed %v", peers)
	}
}

func TestParsePeersErrors(t *testing.T) {
	for _, bad := range []string{"noequals", "=addr", "id=", "a=1,,b=2"} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestStaggeredStart runs three agents in-process, the third starting a
// second late as agents launched one shell at a time do, once sealed and
// once with -insecure-transport: every agent reports the same windows, and
// both modes report the same trades. Each agent runs over a node the test
// started on port 0, so no port is released between choosing and binding
// it; the late agent's node listens from the start, and the early agents'
// first frames wait in its mailbox until it runs.
func TestStaggeredStart(t *testing.T) {
	homes := []struct{ id, gen, load string }{{"solar", "0.4", "0.1"}, {"town", "0", "0.3"}, {"ev", "0.1", "0.2"}}
	trades := map[string][]string{}
	for _, mode := range []string{"sealed", "plain"} {
		t.Run(mode, func(t *testing.T) {
			nodes := make([]*transport.TCPNode, len(homes))
			for i, h := range homes {
				node, err := transport.ListenTCP(h.id, "127.0.0.1:0", nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { node.Close() })
				nodes[i] = node
			}
			outs := make([]bytes.Buffer, len(homes))
			errs := make([]error, len(homes))
			var wg sync.WaitGroup
			for i, h := range homes {
				var peers []string
				for j, o := range homes {
					if j != i {
						peers = append(peers, o.id+"="+nodes[j].Addr())
					}
				}
				args := []string{"-id", h.id, "-peers", strings.Join(peers, ","),
					"-gen", h.gen, "-load", h.load, "-windows", "2", "-keybits", "256", "-timeout", "30s"}
				if mode == "plain" {
					args = append(args, "-insecure-transport")
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					if i == len(homes)-1 {
						time.Sleep(time.Second)
					}
					errs[i] = run(args, nodes[i], &outs[i])
				}()
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}

			var first []string
			for i, out := range outs {
				var windows []string
				for _, line := range strings.Split(out.String(), "\n") {
					_, rest, _ := strings.Cut(line, "] ")
					if strings.HasPrefix(rest, "window ") {
						rest, _, _ = strings.Cut(rest, " (") // drop the elapsed time
						windows = append(windows, rest)
					} else if strings.Contains(rest, "trade:") {
						trades[mode] = append(trades[mode], strings.TrimSpace(rest))
					}
				}
				if i == 0 {
					first = windows
				}
				if len(windows) != 2 || !slices.Equal(windows, first) {
					t.Errorf("%s reports %q, %s %q", homes[i].id, windows, homes[0].id, first)
				}
			}
			slices.Sort(trades[mode])
		})
	}
	if len(trades["sealed"]) == 0 || !slices.Equal(trades["sealed"], trades["plain"]) {
		t.Errorf("sealed trades %q, plain %q", trades["sealed"], trades["plain"])
	}
}
