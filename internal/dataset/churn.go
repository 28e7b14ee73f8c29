package dataset

import (
	"errors"
	"fmt"
	mrand "math/rand"
)

// Churn synthesis: the live grid (internal/grid/epoch.go) runs a multi-day
// simulation split into epochs, and real distributed-energy fleets are
// dynamic — prosumers join, leave and fail between days. This file
// synthesizes that dynamism as a deterministic evolution: a base fleet plus
// a seeded schedule of churn events per epoch boundary, with a fresh day of
// trace data per epoch for every agent present in it. Surviving agents keep
// their static parameters (ID, panel nameplate, preference, battery) across
// epochs; only their weather and load are redrawn, from a per-(epoch, home)
// stream so the whole evolution is bit-reproducible from one seed no matter
// how rosters shift around an agent.

// ChurnEventKind classifies a fleet-membership change at an epoch boundary.
type ChurnEventKind string

// The churn event kinds.
const (
	// ChurnJoin marks a new prosumer entering the fleet at an epoch
	// boundary, with freshly synthesized static parameters under one of the
	// configured scenario presets.
	ChurnJoin ChurnEventKind = "join"
	// ChurnDepart marks a planned departure: the agent announces it is
	// leaving, finishes its current epoch, and settles its cumulative
	// position on exit.
	ChurnDepart ChurnEventKind = "depart"
	// ChurnFail marks a crash-style failure: the agent vanishes at the
	// boundary without announcement. Settlement-wise it is frozen exactly
	// like a departure — the grid operator closes the book either way — but
	// harnesses report the two separately.
	ChurnFail ChurnEventKind = "fail"
)

// ChurnEvent is one fleet-membership change, applied at the boundary
// entering Epoch (so Epoch ≥ 1; the base fleet of epoch 0 has no events).
type ChurnEvent struct {
	// Epoch is the epoch the event takes effect in: a joined agent first
	// trades in Epoch, a departed or failed agent last traded in Epoch−1.
	Epoch int
	// Kind is the membership change.
	Kind ChurnEventKind
	// ID is the affected agent.
	ID string
}

// ChurnConfig controls the churn model of an Evolve run. All rates are
// per-agent-per-boundary probabilities drawn from a seeded stream, so the
// same config always produces the same schedule.
type ChurnConfig struct {
	// Epochs is the total number of epochs to simulate, including the base
	// epoch 0 (required, ≥ 1). Churn applies at the Epochs−1 boundaries.
	Epochs int
	// JoinRate is the expected number of joins per present agent per
	// boundary (e.g. 0.1 grows a 20-home fleet by ~2 homes per epoch).
	JoinRate float64
	// DepartRate is the per-agent probability of a planned departure at
	// each boundary.
	DepartRate float64
	// FailRate is the per-agent probability of a crash-style failure at
	// each boundary. DepartRate+FailRate must stay below 1.
	FailRate float64
	// MinHomes is the roster floor (default 4, minimum 2): departures and
	// failures are vetoed, deterministically and in roster order, when they
	// would drop the fleet below it — a live market needs counterparties.
	MinHomes int
	// Seed drives the churn schedule and the joining agents' synthesis
	// (default: the fleet seed). Per-boundary and per-join streams are
	// derived from it.
	Seed int64
	// Scenarios assigns presets to joining agents, cycling in join order
	// (default DefaultFleetScenarios()).
	Scenarios []Scenario
}

// Validate checks the churn configuration.
func (c ChurnConfig) Validate() error {
	if c.Epochs < 1 {
		return fmt.Errorf("dataset: churn Epochs must be ≥ 1, got %d", c.Epochs)
	}
	for _, r := range []float64{c.JoinRate, c.DepartRate, c.FailRate} {
		if r < 0 || !finite(r) {
			return errors.New("dataset: churn rates must be finite and non-negative")
		}
	}
	if c.DepartRate+c.FailRate >= 1 {
		return fmt.Errorf("dataset: DepartRate+FailRate = %v leaves no survivors", c.DepartRate+c.FailRate)
	}
	if c.MinHomes < 0 || c.MinHomes == 1 {
		return fmt.Errorf("dataset: MinHomes %d out of range (0 = default 4, minimum 2: a market needs a counterparty)", c.MinHomes)
	}
	return nil
}

// EpochFleet is one epoch of an evolution: the roster present for that
// epoch's trading day with a full day of per-window data, plus the
// membership changes applied at the boundary entering it.
type EpochFleet struct {
	// Epoch is the epoch index (0 = the base fleet).
	Epoch int
	// Trace holds the epoch's roster and its day of per-window data.
	// Surviving homes keep their static parameters from earlier epochs but
	// get a fresh day of generation/load/battery.
	Trace *Trace
	// Joined, Departed and Failed list the agent IDs whose join/depart/fail
	// events took effect at this epoch's boundary (all empty for epoch 0).
	// Departed and Failed agents were present in the previous epoch and are
	// absent from this one.
	Joined, Departed, Failed []string
}

// Evolution is a deterministic multi-epoch fleet history: one EpochFleet
// per epoch and the flattened churn schedule. It is the input to the live
// grid's epoch loop.
type Evolution struct {
	// Epochs holds one entry per epoch, in order.
	Epochs []EpochFleet
	// Events is the full churn schedule, ordered by epoch and, within an
	// epoch, joins after departures/failures in roster order.
	Events []ChurnEvent
}

// Evolve synthesizes a multi-epoch fleet: epoch 0 is GenerateFleet(fleet),
// and each later epoch applies seeded churn (joins, planned departures,
// crash failures) to the previous roster and redraws every present home's
// day of trace data. Fully deterministic given the two configs: the churn
// schedule derives from the churn seed, each epoch's day data from
// per-(epoch, home) streams, and each joining agent's static parameters
// from a per-(boundary, join) stream — so any (epoch, home) slice of the
// evolution is independent of everything else that happened.
func Evolve(fleet FleetConfig, churn ChurnConfig) (*Evolution, error) {
	if err := churn.Validate(); err != nil {
		return nil, err
	}
	if churn.MinHomes == 0 {
		churn.MinHomes = 4
	}
	if churn.Seed == 0 {
		churn.Seed = fleet.Seed
	}
	scenarios := churn.Scenarios
	if len(scenarios) == 0 {
		scenarios = DefaultFleetScenarios()
	}

	base, err := GenerateFleet(fleet)
	if err != nil {
		return nil, err
	}
	evo := &Evolution{Epochs: make([]EpochFleet, 0, churn.Epochs)}
	evo.Epochs = append(evo.Epochs, EpochFleet{Epoch: 0, Trace: base})

	roster := append([]Home(nil), base.Homes...)
	joinSerial := 0 // total joins so far, cycles the scenario rotation
	for e := 1; e < churn.Epochs; e++ {
		rng := dayRands.Get().(*mrand.Rand)
		rng.Seed(DeriveSeed("evolve", churn.Seed, fmt.Sprintf("boundary/%d", e)))

		// Draw leavers in roster order: one uniform per agent decides
		// depart / fail / stay, so the schedule is stable under any later
		// change to the join model.
		leaving := make(map[string]ChurnEventKind, len(roster))
		for _, h := range roster {
			switch u := rng.Float64(); {
			case u < churn.DepartRate:
				leaving[h.ID] = ChurnDepart
			case u < churn.DepartRate+churn.FailRate:
				leaving[h.ID] = ChurnFail
			}
		}
		// Join count: expectation JoinRate·|roster| with probabilistic
		// rounding from the same stream.
		expect := churn.JoinRate * float64(len(roster))
		nJoin := int(expect)
		if rng.Float64() < expect-float64(nJoin) {
			nJoin++
		}
		dayRands.Put(rng)
		// Roster floor: veto leavers in roster order until the surviving
		// fleet (plus joins) stays at or above MinHomes.
		for _, h := range roster {
			if len(roster)-len(leaving)+nJoin >= churn.MinHomes {
				break
			}
			delete(leaving, h.ID)
		}

		ef := EpochFleet{Epoch: e}
		var next []Home
		for _, h := range roster {
			switch leaving[h.ID] {
			case ChurnDepart:
				ef.Departed = append(ef.Departed, h.ID)
				evo.Events = append(evo.Events, ChurnEvent{Epoch: e, Kind: ChurnDepart, ID: h.ID})
			case ChurnFail:
				ef.Failed = append(ef.Failed, h.ID)
				evo.Events = append(evo.Events, ChurnEvent{Epoch: e, Kind: ChurnFail, ID: h.ID})
			default:
				next = append(next, h)
			}
		}
		for j := 0; j < nJoin; j++ {
			home, err := synthesizeJoin(churn.Seed, e, j, scenarios[joinSerial%len(scenarios)])
			if err != nil {
				return nil, err
			}
			joinSerial++
			next = append(next, home)
			ef.Joined = append(ef.Joined, home.ID)
			evo.Events = append(evo.Events, ChurnEvent{Epoch: e, Kind: ChurnJoin, ID: home.ID})
		}
		roster = next

		tr, err := epochTrace(churn.Seed, e, roster, base.Windows, base.StartHour, fleet.OnDemand)
		if err != nil {
			return nil, err
		}
		ef.Trace = tr
		evo.Epochs = append(evo.Epochs, ef)
	}
	return evo, nil
}

// synthesizeJoin generates the static parameters of the j-th agent joining
// at the boundary entering epoch e, under the given scenario preset, from
// its own derived stream. Its day data is drawn later by epochTrace like
// any other roster member's.
func synthesizeJoin(seed int64, e, j int, s Scenario) (Home, error) {
	cfg, err := ScenarioConfig(s, 1, 1, DeriveSeed("evolve", seed, fmt.Sprintf("join/%d/%d", e, j)))
	if err != nil {
		return Home{}, err
	}
	one, err := Generate(cfg)
	if err != nil {
		return Home{}, fmt.Errorf("dataset: join %d at epoch %d (%s): %w", j, e, s, err)
	}
	home := one.Homes[0]
	home.ID = fmt.Sprintf("e%02d-home-%02d", e, j)
	return home, nil
}

// epochTrace draws a fresh day of per-window data for every roster member
// from its per-(epoch, home) stream, under the day shape of the home's own
// scenario preset. Static parameters are carried over unchanged. With
// onDemand the days stay unmaterialized synthesizers (see Config.OnDemand)
// — the streams were per-(epoch, home) already, so a lazy evolution is
// bit-identical to an eager one.
func epochTrace(seed int64, e int, roster []Home, windows int, startHour float64, onDemand bool) (*Trace, error) {
	tr := newTrace(append([]Home(nil), roster...), windows, startHour)
	tr.synth = make([]synthFn, len(roster))
	skies := skyCache{}
	for i, h := range roster {
		cfg, err := ScenarioConfig(h.Scenario, 1, windows, 0)
		if err != nil {
			return nil, err
		}
		cfg.StartHour = startHour
		cfg = cfg.withDefaults()
		cfg.sky = skies.curve(cfg)
		h, daySeed := h, DeriveSeed("evolve", seed, fmt.Sprintf("day/%d/%s", e, h.ID))
		tr.synth[i] = func(gen, load, batt []float64) { cfg.synthesizeDay(h, daySeed, gen, load, batt) }
	}
	if !onDemand {
		tr.Materialize()
	}
	return tr, nil
}
