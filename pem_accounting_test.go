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

// oldCheckpointConfigs are checkpoint configuration blobs exactly as a
// durable live grid wrote them while its configuration still carried fields
// since removed: a WAL written then must still resume.
var oldCheckpointConfigs = map[string]string{
	// pem.Config with RecordLedger and CryptoWorkers.
	"RecordLedger": `{"Live":{"Market":{"KeyBits":256,"Params":{"GridSellPrice":0,"GridRetailPrice":0,"PriceFloor":0,"PriceCeil":0},"PreEncrypt":null,"Seed":41,"RecordLedger":null,"MaxInflightWindows":0,"CryptoWorkers":0,"Aggregation":"","CryptoBackend":"","Network":""},"Coalitions":2,"Partition":"balanced","PartitionSeed":0,"MaxConcurrentCoalitions":0,"MinCoalition":0,"Tiers":null,"RetainCoalitionResults":false,"Epochs":3,"Churn":{"Epochs":0,"JoinRate":0.25,"DepartRate":0.15,"FailRate":0.1,"MinHomes":0,"Seed":0,"Scenarios":null}},"Fleet":{"Coalitions":2,"HomesPerCoalition":4,"Windows":2,"Seed":7,"StartHour":12,"Scenarios":null,"OnDemand":false}}`,
	// LiveGridConfig with RetainCoalitionResults set.
	"RetainCoalitionResults": `{"Live":{"Market":{"KeyBits":256,"Params":{"GridSellPrice":0,"GridRetailPrice":0,"PriceFloor":0,"PriceCeil":0},"PreEncrypt":null,"Seed":41,"MaxInflightWindows":0,"Aggregation":"","CryptoBackend":"","Network":""},"Coalitions":2,"Partition":"balanced","PartitionSeed":0,"MaxConcurrentCoalitions":0,"MinCoalition":0,"Tiers":null,"RetainCoalitionResults":true,"Epochs":3,"Churn":{"Epochs":0,"JoinRate":0.25,"DepartRate":0.15,"FailRate":0.1,"MinHomes":0,"Seed":0,"Scenarios":null}},"Fleet":{"Coalitions":2,"HomesPerCoalition":4,"Windows":2,"Seed":7,"StartHour":12,"Scenarios":null,"OnDemand":false}}`,
	// pem.Config with MaxInflightWindows set, and LiveGridConfig with
	// PartitionSeed: left at 0, or equal to Market.Seed, it partitions as
	// Market.Seed does now.
	"MaxInflightWindows": `{"Live":{"Market":{"KeyBits":256,"Params":{"GridSellPrice":0,"GridRetailPrice":0,"PriceFloor":0,"PriceCeil":0},"PreEncrypt":null,"Seed":41,"MaxInflightWindows":3,"Aggregation":"","CryptoBackend":"","Network":""},"Coalitions":2,"Partition":"balanced","PartitionSeed":0,"MaxConcurrentCoalitions":0,"MinCoalition":0,"Tiers":null,"Epochs":3,"Churn":{"Epochs":0,"JoinRate":0.25,"DepartRate":0.15,"FailRate":0.1,"MinHomes":0,"Seed":0,"Scenarios":null}},"Fleet":{"Coalitions":2,"HomesPerCoalition":4,"Windows":2,"Seed":7,"StartHour":12,"Scenarios":null,"OnDemand":false}}`,
	"PartitionSeed=Seed": `{"Live":{"Market":{"KeyBits":256,"Params":{"GridSellPrice":0,"GridRetailPrice":0,"PriceFloor":0,"PriceCeil":0},"PreEncrypt":null,"Seed":41,"MaxInflightWindows":3,"Aggregation":"","CryptoBackend":"","Network":""},"Coalitions":2,"Partition":"balanced","PartitionSeed":41,"MaxConcurrentCoalitions":0,"MinCoalition":0,"Tiers":null,"Epochs":3,"Churn":{"Epochs":0,"JoinRate":0.25,"DepartRate":0.15,"FailRate":0.1,"MinHomes":0,"Seed":0,"Scenarios":null}},"Fleet":{"Coalitions":2,"HomesPerCoalition":4,"Windows":2,"Seed":7,"StartHour":12,"Scenarios":null,"OnDemand":false}}`,
}

// checkpointLog is a Store that keeps every checkpoint written through it.
type checkpointLog struct {
	pem.Store
	cps []pem.Checkpoint
}

func (c *checkpointLog) PutCheckpoint(cp pem.Checkpoint) error {
	c.cps = append(c.cps, cp)
	return c.Store.PutCheckpoint(cp)
}

// TestResumeOldCheckpointConfig: a WAL whose checkpoint embeds an older
// configuration blob — with the since-removed "RecordLedger",
// "CryptoWorkers", "RetainCoalitionResults", "MaxInflightWindows" or
// "PartitionSeed" keys — resumes, and replays the remaining epochs to the
// same coalition ledger heads and positions as an uninterrupted run.
func TestResumeOldCheckpointConfig(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	// The uninterrupted run of the configuration the blob describes; its
	// epoch-0 checkpoint supplies the positions a crash after epoch 0 leaves.
	log := &checkpointLog{Store: tempWAL(t)}
	lcfg, fleet := storeLiveConfig(log)
	fleet.StartHour = 12
	ref, err := mustLiveGrid(t, lcfg, fleet).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.cps) != 3 || len(ref.Epochs) != 3 {
		t.Fatalf("reference wrote %d checkpoints over %d epochs, want 3", len(log.cps), len(ref.Epochs))
	}

	for name, blob := range oldCheckpointConfigs {
		t.Run(name, func(t *testing.T) {
			lg, err := pem.Resume(walWithConfig(t, log.cps[0], blob))
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
		})
	}
}

// walWithConfig writes cp, its configuration replaced by blob, as the one
// checkpoint of a new WAL and returns the WAL's path.
func walWithConfig(t *testing.T, cp pem.Checkpoint, blob string) string {
	t.Helper()
	cp.Config = []byte(blob)
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
	return path
}

// TestResumeRefusesPartitionSeed: an older checkpoint whose PartitionSeed
// is set and differs from Market.Seed partitioned its epochs from a seed
// the configuration no longer has, so Resume refuses it by name rather than
// replay a different history.
func TestResumeRefusesPartitionSeed(t *testing.T) {
	log := &checkpointLog{Store: tempWAL(t)}
	lcfg, fleet := storeLiveConfig(log)
	fleet.StartHour = 12
	if _, err := mustLiveGrid(t, lcfg, fleet).Run(t.Context()); err != nil {
		t.Fatal(err)
	}
	for _, seeds := range []struct{ market, partition string }{{"41", "5"}, {"null", "41"}} {
		blob := strings.NewReplacer(`"Seed":41,"Max`, `"Seed":`+seeds.market+`,"Max`, `"PartitionSeed":0`, `"PartitionSeed":`+seeds.partition).
			Replace(oldCheckpointConfigs["MaxInflightWindows"])
		lg, err := pem.Resume(walWithConfig(t, log.cps[0], blob))
		if err == nil {
			lg.Close()
			t.Errorf("Seed %s, PartitionSeed %s: resumed", seeds.market, seeds.partition)
		} else if !strings.Contains(err.Error(), "PartitionSeed") {
			t.Errorf("Seed %s, PartitionSeed %s: error %q does not name PartitionSeed", seeds.market, seeds.partition, err)
		}
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
			"KeyBits Params PreEncrypt Seed Aggregation CryptoBackend Network Store"},
		"pem.GridConfig": {fields(pem.GridConfig{}),
			"Market Coalitions Partition MaxConcurrentCoalitions MinCoalition Tiers Store"},
		"pem.LiveGridConfig": {fields(pem.LiveGridConfig{}),
			"Market Coalitions Partition MaxConcurrentCoalitions MinCoalition Tiers Store Epochs Churn"},
		"core.Config": {fields(core.Config{}),
			"KeyBits Params PreEncrypt CryptoBackend Aggregation Network Seed"},
		"core.Resources": {fields(core.Resources{}),
			"Bus Scope Workers Keys"},
		"*transport.Metrics": {methods(&transport.Metrics{}),
			"LiveWindows OpenWindow TotalBytes TotalMessages"},
	}
	for name, s := range surface {
		if s[0] != s[1] {
			t.Errorf("%s surface changed:\n got  %s\n want %s", name, s[0], s[1])
		}
	}
}
