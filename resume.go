package pem

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	"github.com/pem-go/pem/internal/dataset"
)

// Crash recovery for durable live grids. A LiveGridConfig with a Store
// embeds its own (and the fleet's) configuration in every epoch checkpoint,
// so a killed simulation needs nothing but the WAL file to come back: Resume
// reopens the log, recovers its state (truncating any torn tail), rebuilds
// the exact same LiveGrid from the checkpointed configuration and restarts
// it after the last completed epoch. Because every per-epoch seed derives
// independently from the base seeds, the resumed run replays the remaining
// epochs bit-identically to the uninterrupted one.

// resumeMeta is the configuration blob embedded in each checkpoint: enough
// to rebuild the LiveGrid (the evolution is seed-derived, so the fleet
// config regenerates the identical churn history). Store fields are tagged
// out of the encoding; everything else round-trips exactly.
type resumeMeta struct {
	// Live is the simulation's public configuration.
	Live LiveGridConfig
	// Fleet is the base-fleet synthesis configuration.
	Fleet FleetConfig
}

// removedKeys are the keys an older checkpoint may carry for values the
// code now derives. Left at zero, or set to what the code derives, a key
// replays; any other value drew a history this version cannot draw.
type removedKeys struct {
	Live struct {
		PartitionSeed, MinCoalition int64
		Churn                       struct {
			MinHomes, Seed int64
			Scenarios      []Scenario
		}
	}
	Fleet struct{ Scenarios []Scenario }
}

// check refuses, by name, the first key set to a value meta would not derive.
func (old removedKeys) check(meta resumeMeta) error {
	churn := old.Live.Churn
	for _, k := range []struct {
		key       string
		got, want int64
	}{
		{"PartitionSeed", old.Live.PartitionSeed, meta.Live.Market.partitionSeed()},
		{"MinCoalition", old.Live.MinCoalition, MinCoalition},
		{"Churn.MinHomes", churn.MinHomes, dataset.MinHomes},
		{"Churn.Seed", churn.Seed, meta.Fleet.Seed},
	} {
		if k.got != 0 && k.got != k.want {
			return fmt.Errorf("pem: resume: checkpoint sets %s %d where the code now derives %d, so the run cannot replay", k.key, k.got, k.want)
		}
	}
	rotation := dataset.DefaultFleetScenarios()
	for _, k := range []struct {
		key string
		got []Scenario
	}{{"Churn.Scenarios", churn.Scenarios}, {"Fleet.Scenarios", old.Fleet.Scenarios}} {
		if len(k.got) > 0 && !slices.Equal(k.got, rotation) {
			return fmt.Errorf("pem: resume: checkpoint sets %s %v where the code now derives %v, so the run cannot replay", k.key, k.got, rotation)
		}
	}
	return nil
}

// Resume reopens the WAL at path and rebuilds the live-grid simulation it
// was checkpointing, positioned to continue after the last completed epoch:
// the position book restores bit-exactly from the checkpoint and the next
// Run or Stream call replays only the remaining epochs — bit-identically to
// an uninterrupted run when the original configuration was seeded. The
// checkpoint's configuration hash and roster are cross-checked against the
// rebuilt simulation before anything runs, and an older configuration that
// sets a since-removed key to a value the code no longer derives is refused
// by name. The returned grid owns the reopened store; release it with Close
// after the resumed run.
func Resume(path string) (*LiveGrid, error) {
	wal, err := OpenWAL(path)
	if err != nil {
		return nil, err
	}
	lg, err := resumeFrom(wal)
	if err != nil {
		wal.Close()
		return nil, err
	}
	return lg, nil
}

// resumeFrom rebuilds the simulation from an opened store's newest
// checkpoint; on error the caller closes the store.
func resumeFrom(wal *WALStore) (*LiveGrid, error) {
	cp, ok, err := wal.LastCheckpoint()
	if err != nil {
		return nil, fmt.Errorf("pem: resume: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("pem: resume: %s has no checkpoint (no epoch completed before the crash)", wal.Path())
	}
	if len(cp.Config) == 0 {
		return nil, fmt.Errorf("pem: resume: checkpoint carries no configuration")
	}
	sum := sha256.Sum256(cp.Config)
	if got := hex.EncodeToString(sum[:]); got != cp.ConfigHash {
		return nil, fmt.Errorf("pem: resume: checkpoint configuration hash mismatch (have %s, recorded %s)", got, cp.ConfigHash)
	}
	var meta resumeMeta
	var old removedKeys
	for _, v := range []any{&meta, &old} {
		if err := json.Unmarshal(cp.Config, v); err != nil {
			return nil, fmt.Errorf("pem: resume: decode checkpoint configuration: %w", err)
		}
	}
	if err := old.check(meta); err != nil {
		return nil, err
	}
	meta.Live.Store = wal
	lg, err := NewLiveGrid(meta.Live, meta.Fleet)
	if err != nil {
		return nil, fmt.Errorf("pem: resume: rebuild simulation: %w", err)
	}
	// The evolution is regenerated from the fleet seed; cross-check the
	// checkpointed roster against the rebuilt epoch's before trusting it to
	// replay the same history.
	rosters := lg.Rosters()
	if cp.Epoch < 0 || cp.Epoch >= len(rosters) {
		return nil, fmt.Errorf("pem: resume: checkpoint epoch %d outside the %d-epoch simulation", cp.Epoch, len(rosters))
	}
	if err := sameRoster(rosters[cp.Epoch], cp.Roster); err != nil {
		return nil, fmt.Errorf("pem: resume: epoch %d roster mismatch: %w", cp.Epoch, err)
	}
	lg.cfg.Resume = &cp
	lg.owned = wal
	return lg, nil
}

// sameRoster reports how two rosters differ (nil when identical in order).
func sameRoster(rebuilt, recorded []string) error {
	if len(rebuilt) != len(recorded) {
		return fmt.Errorf("rebuilt %d agents, checkpoint recorded %d", len(rebuilt), len(recorded))
	}
	for i := range rebuilt {
		if rebuilt[i] != recorded[i] {
			return fmt.Errorf("agent %d: rebuilt %q, checkpoint recorded %q", i, rebuilt[i], recorded[i])
		}
	}
	return nil
}
