package transport

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
)

// frameABIGolden is writeFrame's encoding of TestFrameABI's message:
// u32 total | u16 fromLen | u16 toLen | u16 tagLen | from | to | tag | payload.
const frameABIGolden = "00000027 0003 0003 0015" +
	"683031" + "683032" + // "h01", "h02"
	"6530312d6330322f77372f706d652f72696e672f33" + // "e01-c02/w7/pme/ring/3"
	"deadbeef0001"

// TestFrameABI pins the TCP frame layout and the window-tag namespaces it
// carries: a drift in either breaks every deployed pem-agent's peers, not
// just this build.
func TestFrameABI(t *testing.T) {
	if got := ScopedWindowTag("", 7, "pme/ring/3"); got != "w7/pme/ring/3" {
		t.Errorf("unscoped ScopedWindowTag = %q", got)
	}
	tag := ScopedWindowTag("e01-c02", 7, "pme/ring/3")
	if tag != "e01-c02/w7/pme/ring/3" {
		t.Errorf("ScopedWindowTag = %q", tag)
	}
	msg := Message{From: "h01", To: "h02", Tag: tag, Payload: []byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}}

	var buf bytes.Buffer
	if err := writeFrame(&buf, msg); err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.ReplaceAll(frameABIGolden, " ", ""))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("frame drifted:\n got %x\nwant %x", buf.Bytes(), want)
	}
	if n := WireSize(msg.From, msg.To, msg.Tag, msg.Payload); n != len(want) {
		t.Errorf("WireSize = %d, frame is %d bytes", n, len(want))
	}

	back, err := readFrame(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if back.From != msg.From || back.To != msg.To || back.Tag != msg.Tag || !bytes.Equal(back.Payload, msg.Payload) {
		t.Errorf("round trip = %+v, want %+v", back, msg)
	}
}
