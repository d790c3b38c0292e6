package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"impatience/internal/demand"
	"impatience/internal/numeric"
)

// snapshotVersion guards the on-disk format; bump on incompatible change.
const snapshotVersion = 1

// snapConfig is the subset of Config a snapshot must match to be
// restorable: state folded under one operating point must not silently
// seed a daemon solving a different one. The utility is stored by
// canonical name so spec aliases ("exp:0.5" vs "exponential:0.5") match.
type snapConfig struct {
	Items    int     `json:"items"`
	Servers  int     `json:"servers"`
	Rho      int     `json:"rho"`
	Mu       float64 `json:"mu"`
	Utility  string  `json:"utility"`
	HalfLife float64 `json:"half_life_sec"`
}

// snapshotFile is the serialized daemon state. Go's encoding/json writes
// float64 values with the shortest round-trippable representation, so a
// save/restore cycle reproduces every rate, allocation entry, and the
// dual level bit for bit.
type snapshotFile struct {
	Version     int        `json:"version"`
	Config      snapConfig `json:"config"`
	Rates       []float64  `json:"rates"`
	Observed    uint64     `json:"observed"`
	Alloc       []float64  `json:"alloc"`
	Lambda      float64    `json:"lambda"`
	SolvedRates []float64  `json:"solved_rates,omitempty"`
}

func (s *Server) snapConfig() snapConfig {
	return snapConfig{
		Items:    s.cfg.Items,
		Servers:  s.cfg.Servers,
		Rho:      s.cfg.Rho,
		Mu:       s.cfg.Mu,
		Utility:  s.f.Name(),
		HalfLife: s.est.halfLife,
	}
}

// Snapshot atomically persists the estimator and allocation state to the
// configured snapshot path (write to a temp file in the same directory,
// fsync, rename) and returns the number of bytes written.
func (s *Server) Snapshot() (int, error) {
	if s.cfg.SnapshotPath == "" {
		return 0, fmt.Errorf("serve: no snapshot path configured")
	}
	s.mtx.RLock()
	snap := snapshotFile{
		Version:     snapshotVersion,
		Config:      s.snapConfig(),
		Rates:       append([]float64(nil), s.est.rates...),
		Observed:    s.est.Observed(),
		Alloc:       append([]float64(nil), s.alloc...),
		Lambda:      s.lambda,
		SolvedRates: append([]float64(nil), s.solvedPop.Rates...),
	}
	s.mtx.RUnlock()

	data, err := json.Marshal(snap)
	if err != nil {
		return 0, err
	}
	dir := filepath.Dir(s.cfg.SnapshotPath)
	tmp, err := os.CreateTemp(dir, ".aged-snap-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), s.cfg.SnapshotPath); err != nil {
		return 0, err
	}
	return len(data), nil
}

// Restore loads a snapshot from the configured path and installs it:
// estimator rates and observation counter, allocation, dual level, and
// the solver's warm-start state. The snapshot's operating point must
// match the server's config exactly; a mismatch is an error and leaves
// the server untouched.
func (s *Server) Restore() error {
	if s.cfg.SnapshotPath == "" {
		return fmt.Errorf("serve: no snapshot path configured")
	}
	data, err := os.ReadFile(s.cfg.SnapshotPath)
	if err != nil {
		return err
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("serve: corrupt snapshot %s: %v", s.cfg.SnapshotPath, err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("serve: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	if got, want := snap.Config, s.snapConfig(); got != want {
		return fmt.Errorf("serve: snapshot config %+v does not match server %+v", got, want)
	}
	if len(snap.Alloc) != s.cfg.Items {
		return fmt.Errorf("serve: snapshot allocation has %d items, want %d", len(snap.Alloc), s.cfg.Items)
	}

	s.mtx.Lock()
	defer s.mtx.Unlock()
	if err := s.est.restore(snap.Rates, snap.Observed); err != nil {
		return err
	}
	s.alloc = append([]float64(nil), snap.Alloc...)
	s.lambda = snap.Lambda
	if len(snap.SolvedRates) == s.cfg.Items {
		s.solvedPop = demand.Popularity{Rates: append([]float64(nil), snap.SolvedRates...)}
	}
	if snap.Lambda > 0 {
		s.solver.SetWarmState(&numeric.WarmState{
			Lambda: snap.Lambda,
			X:      append([]float64(nil), snap.Alloc...),
		})
	} else {
		s.solver.SetWarmState(nil)
	}
	return nil
}
