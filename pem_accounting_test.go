package pem_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/pem-go/pem"
	"github.com/pem-go/pem/internal/core"
	"github.com/pem-go/pem/internal/transport"
)

// parentCheckpointConfig is a checkpoint configuration blob exactly as a
// durable live grid wrote it while pem.Config still carried RecordLedger and
// CryptoWorkers: a WAL written then must still resume.
const parentCheckpointConfig = `{"Live":{"Market":{"KeyBits":256,"Params":{"GridSellPrice":0,"GridRetailPrice":0,"PriceFloor":0,"PriceCeil":0},"PreEncrypt":null,"Seed":41,"RecordLedger":null,"MaxInflightWindows":0,"CryptoWorkers":0,"Aggregation":"","CryptoBackend":"","Network":""},"Coalitions":2,"Partition":"balanced","PartitionSeed":0,"MaxConcurrentCoalitions":0,"MinCoalition":0,"Tiers":null,"RetainCoalitionResults":false,"Epochs":3,"Churn":{"Epochs":0,"JoinRate":0.25,"DepartRate":0.15,"FailRate":0.1,"MinHomes":0,"Seed":0,"Scenarios":null}},"Fleet":{"Coalitions":2,"HomesPerCoalition":4,"Windows":2,"Seed":7,"StartHour":12,"Scenarios":null,"OnDemand":false}}`

// checkpointLog is a Store that keeps every checkpoint written through it.
type checkpointLog struct {
	pem.Store
	cps []pem.Checkpoint
}

func (c *checkpointLog) PutCheckpoint(cp pem.Checkpoint) error {
	c.cps = append(c.cps, cp)
	return c.Store.PutCheckpoint(cp)
}

// TestResumeOldCheckpointConfig: a WAL whose checkpoint embeds the older
// configuration blob — with the since-removed "RecordLedger" and
// "CryptoWorkers" keys — resumes, and replays the remaining epochs to the
// same coalition ledger heads and positions as an uninterrupted run.
func TestResumeOldCheckpointConfig(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	// The uninterrupted run of the configuration the blob describes; its
	// epoch-0 checkpoint supplies the positions a crash after epoch 0 leaves.
	log := &checkpointLog{Store: pem.NewMemStore()}
	lcfg, fleet := storeLiveConfig(log)
	fleet.StartHour = 12
	ref, err := mustLiveGrid(t, lcfg, fleet).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.cps) != 3 || len(ref.Epochs) != 3 {
		t.Fatalf("reference wrote %d checkpoints over %d epochs, want 3", len(log.cps), len(ref.Epochs))
	}

	cp := log.cps[0]
	cp.Config = []byte(parentCheckpointConfig)
	sum := sha256.Sum256(cp.Config)
	cp.ConfigHash = hex.EncodeToString(sum[:])
	path := filepath.Join(t.TempDir(), "old.wal")
	wal, err := pem.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.PutCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	lg, err := pem.Resume(path)
	if err != nil {
		t.Fatalf("resume of an old checkpoint configuration: %v", err)
	}
	defer lg.Close()
	if lg.ResumedEpoch() != 0 {
		t.Fatalf("resumed after epoch %d, want 0", lg.ResumedEpoch())
	}
	res, err := lg.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 2 {
		t.Fatalf("resumed run replayed %d epochs, want 2", len(res.Epochs))
	}
	for i, er := range res.Epochs {
		want := ref.Epochs[i+1]
		if len(er.Coalitions) != len(want.Coalitions) {
			t.Fatalf("epoch %d: %d coalitions, uninterrupted run %d", er.Epoch, len(er.Coalitions), len(want.Coalitions))
		}
		for j, cr := range er.Coalitions {
			if cr.ChainHead == "" || cr.ChainHead != want.Coalitions[j].ChainHead {
				t.Errorf("%s: ledger head %q, uninterrupted run %q", cr.Name, cr.ChainHead, want.Coalitions[j].ChainHead)
			}
		}
	}
	if !reflect.DeepEqual(res.Positions, ref.Positions) {
		t.Error("positions diverged from the uninterrupted run")
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConfigSurface pins the configuration and metrics surface: the
// exported fields of the public and engine configuration types and the
// exported methods of the transport metrics sink. A new knob or reader has
// to be added to this list in the same change that adds it.
func TestConfigSurface(t *testing.T) {
	fields := func(v any) string {
		typ := reflect.TypeOf(v)
		var names []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				names = append(names, f.Name)
			}
		}
		return strings.Join(names, " ")
	}
	methods := func(v any) string {
		typ := reflect.TypeOf(v)
		names := make([]string, typ.NumMethod())
		for i := range names {
			names[i] = typ.Method(i).Name
		}
		return strings.Join(names, " ")
	}
	surface := map[string][2]string{
		"pem.Config": {fields(pem.Config{}),
			"KeyBits Params PreEncrypt Seed MaxInflightWindows Aggregation CryptoBackend Network Store"},
		"pem.GridConfig": {fields(pem.GridConfig{}),
			"Market Coalitions Partition PartitionSeed MaxConcurrentCoalitions MinCoalition Tiers Store"},
		"pem.LiveGridConfig": {fields(pem.LiveGridConfig{}),
			"Market Coalitions Partition PartitionSeed MaxConcurrentCoalitions MinCoalition Tiers RetainCoalitionResults Store Epochs Churn"},
		"core.Config": {fields(core.Config{}),
			"KeyBits Params PreEncrypt MaxInflightWindows CryptoBackend Aggregation Network Seed"},
		"core.Resources": {fields(core.Resources{}),
			"Bus Scope Workers Keys"},
		"*transport.Metrics": {methods(&transport.Metrics{}),
			"FoldWindow LiveWindows ScopedWindowBytes ScopedWindowMessages TotalBytes TotalMessages"},
	}
	for name, s := range surface {
		if s[0] != s[1] {
			t.Errorf("%s surface changed:\n got  %s\n want %s", name, s[0], s[1])
		}
	}
}
