package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"impatience/internal/demand"
	"impatience/internal/utility"
)

// MaxCatalog is the hard ceiling on the catalog size a daemon will serve;
// an allocation response for a larger catalog would no longer be a cheap
// query, and a typo'd -items should fail loudly at boot, not OOM later.
const MaxCatalog = 1 << 20

// Config parameterizes a Server: the homogeneous system it solves
// (catalog, |S|, ρ, µ, delay-utility) and the serving-loop knobs.
type Config struct {
	Items    int     // catalog size
	Servers  int     // |S|
	Rho      int     // per-server cache slots
	Mu       float64 // pairwise contact rate
	Utility  string  // delay-utility spec, e.g. "step:10"
	HalfLife float64 // estimator EWMA half-life, seconds
	// Drift is the demand.DriftL1 threshold between the estimate at the
	// last solve and the current one past which an observe triggers a
	// re-solve. 0 re-solves on every window.
	Drift float64
	// MaxBody caps request bodies in bytes (default 1 MiB).
	MaxBody int64
	// TableMax bounds the ϕ/ψ table cache (default 32 entries).
	TableMax int
	// SnapshotPath, when non-empty, is where POST /v1/snapshot persists
	// state and where Restore reads it from.
	SnapshotPath string
}

func (c *Config) normalize() {
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.TableMax <= 0 {
		c.TableMax = 32
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Items <= 0:
		return fmt.Errorf("serve: catalog size %d, want > 0", c.Items)
	case c.Items > MaxCatalog:
		return fmt.Errorf("serve: catalog size %d exceeds ceiling %d", c.Items, MaxCatalog)
	case c.Servers <= 0:
		return fmt.Errorf("serve: %d servers, want > 0", c.Servers)
	case c.Rho <= 0:
		return fmt.Errorf("serve: ρ=%d, want > 0", c.Rho)
	case !(c.Mu > 0) || math.IsInf(c.Mu, 1):
		return fmt.Errorf("serve: µ=%g, want finite > 0", c.Mu)
	case !(c.HalfLife > 0) || math.IsInf(c.HalfLife, 1):
		return fmt.Errorf("serve: half-life %g, want finite > 0", c.HalfLife)
	case c.Drift < 0 || c.Drift >= 1 || math.IsNaN(c.Drift):
		return fmt.Errorf("serve: drift threshold %g, want [0, 1)", c.Drift)
	}
	if _, err := utility.Parse(c.Utility); err != nil {
		return err
	}
	return nil
}

// Server is the aged daemon's core: estimator, incremental solver, table
// cache, and current allocation behind one RWMutex. Queries take the read
// lock; observation windows (and the re-solves they trigger) take the
// write lock, so a slow solve never returns a torn allocation.
type Server struct {
	cfg Config
	f   utility.Function

	mtx          sync.RWMutex
	est          *Estimator
	solver       *Solver
	alloc        []float64
	lambda       float64
	lastWarm     bool
	solvedPop    demand.Popularity // estimate at the last solve; drift baseline
	observeCalls uint64
	resolves     uint64

	tables *TableCache
}

// New builds a Server from a validated config. The initial allocation is
// all-zeros: before any demand is observed there is nothing to replicate.
func New(cfg Config) (*Server, error) {
	cfg.normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f, err := utility.Parse(cfg.Utility)
	if err != nil {
		return nil, err
	}
	est, err := NewEstimator(cfg.Items, cfg.HalfLife)
	if err != nil {
		return nil, err
	}
	solver, err := NewSolver(f, cfg.Mu, cfg.Servers, cfg.Rho)
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:    cfg,
		f:      f,
		est:    est,
		solver: solver,
		alloc:  make([]float64, cfg.Items),
		tables: NewTableCache(cfg.TableMax),
	}, nil
}

// Config returns the server's normalized configuration.
func (s *Server) Config() Config { return s.cfg }

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /v1/allocation", s.handleAllocation)
	mux.HandleFunc("GET /v1/psi", s.handlePsi)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/observe", s.handleObserve)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	return mux
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeBody(w http.ResponseWriter, body any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}

// AllocationResponse is the wire form of GET /v1/allocation. It carries
// only snapshot-persisted state — allocation, dual level, observation
// counter — so a snapshot → restart → restore cycle reproduces the body
// bit for bit; process-local solve counters live on /v1/stats.
type AllocationResponse struct {
	Allocation []float64 `json:"allocation"`
	Lambda     float64   `json:"lambda"`
	Observed   uint64    `json:"observed"`
}

func (s *Server) handleAllocation(w http.ResponseWriter, r *http.Request) {
	s.mtx.RLock()
	resp := AllocationResponse{
		Allocation: append([]float64(nil), s.alloc...),
		Lambda:     s.lambda,
		Observed:   s.est.Observed(),
	}
	s.mtx.RUnlock()
	writeBody(w, resp)
}

// ObserveResponse is the wire form of POST /v1/observe.
type ObserveResponse struct {
	Folded   float64 `json:"folded"`
	Drift    float64 `json:"drift"`
	Resolved bool    `json:"resolved"`
	Warm     bool    `json:"warm"`
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	body, status, err := s.readBody(w, r)
	if err != nil {
		httpError(w, status, "%v", err)
		return
	}
	// Decode and validate everything before taking the write lock: a bad
	// window must leave the estimator untouched.
	window, counts, err := ParseObserve(body, s.cfg.Items)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var folded float64
	for _, c := range counts {
		folded += c
	}

	s.mtx.Lock()
	defer s.mtx.Unlock()
	if err := s.est.Fold(counts, window); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.observeCalls++
	cur := s.est.Snapshot()
	resp := ObserveResponse{Folded: folded, Warm: s.lastWarm}
	resp.Drift = demand.DriftL1(s.solvedPop, cur)
	needSolve := cur.Total() > 0 && (s.solvedPop.Items() == 0 || resp.Drift >= s.cfg.Drift)
	if needSolve {
		if err := s.resolveLocked(cur); err != nil {
			httpError(w, http.StatusInternalServerError, "re-solve: %v", err)
			return
		}
		resp.Resolved = true
		resp.Warm = s.lastWarm
	}
	writeBody(w, resp)
}

// readBody reads a request body of at most MaxBody bytes. A body over
// the cap is a 413; any other read failure, such as a body that ends
// before its Content-Length or a client that hangs up, is a 400. A
// declared length is read into one buffer of exactly that size.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, int, error) {
	if r.ContentLength > s.cfg.MaxBody {
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", s.cfg.MaxBody)
	}
	var body []byte
	var err error
	if r.ContentLength >= 0 {
		body = make([]byte, r.ContentLength)
		_, err = io.ReadFull(r.Body, body)
	} else {
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", s.cfg.MaxBody)
	case err != nil:
		return nil, http.StatusBadRequest, fmt.Errorf("serve: reading observe body: %w", err)
	}
	return body, http.StatusOK, nil
}

// resolveLocked re-solves the allocation for the demand estimate cur.
// Callers hold the write lock.
func (s *Server) resolveLocked(cur demand.Popularity) error {
	x, lambda, warm, err := s.solver.Solve(cur)
	if err != nil {
		return err
	}
	s.alloc = x
	s.lambda = lambda
	s.lastWarm = warm
	s.solvedPop = cur
	s.resolves++
	return nil
}

// PsiResponse is the wire form of GET /v1/psi.
type PsiResponse struct {
	Utility string  `json:"utility"`
	Y       int     `json:"y"`
	Psi     float64 `json:"psi"`
	Phi     float64 `json:"phi"`
}

func (s *Server) handlePsi(w http.ResponseWriter, r *http.Request) {
	spec := r.URL.Query().Get("utility")
	if spec == "" {
		spec = s.cfg.Utility
	}
	y, err := strconv.Atoi(r.URL.Query().Get("y"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "serve: query parameter y must be an integer: %v", err)
		return
	}
	if y < 1 || y > s.cfg.Servers {
		httpError(w, http.StatusBadRequest, "serve: y=%d outside [1, %d]", y, s.cfg.Servers)
		return
	}
	t, err := s.tables.Get(spec, s.cfg.Mu, s.cfg.Servers)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeBody(w, PsiResponse{Utility: t.Utility, Y: y, Psi: t.Psi(y), Phi: t.Phi(y)})
}

// StatsResponse is the wire form of GET /v1/stats.
type StatsResponse struct {
	Items        int        `json:"items"`
	Servers      int        `json:"servers"`
	Rho          int        `json:"rho"`
	Utility      string     `json:"utility"`
	Observed     uint64     `json:"observed"`
	ObserveCalls uint64     `json:"observe_calls"`
	Resolves     uint64     `json:"resolves"`
	Solves       SolveStats `json:"solves"`
	LastWarm     bool       `json:"last_warm"`
	TablesCached int        `json:"tables_cached"`
	Lambda       float64    `json:"lambda"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mtx.RLock()
	resp := StatsResponse{
		Items:        s.cfg.Items,
		Servers:      s.cfg.Servers,
		Rho:          s.cfg.Rho,
		Utility:      s.f.Name(),
		Observed:     s.est.Observed(),
		ObserveCalls: s.observeCalls,
		Resolves:     s.resolves,
		Solves:       s.solver.Stats(),
		LastWarm:     s.lastWarm,
		Lambda:       s.lambda,
	}
	s.mtx.RUnlock()
	resp.TablesCached = s.tables.Len()
	writeBody(w, resp)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.cfg.SnapshotPath == "" {
		httpError(w, http.StatusBadRequest, "serve: no snapshot path configured")
		return
	}
	n, err := s.Snapshot()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeBody(w, map[string]any{"path": s.cfg.SnapshotPath, "bytes": n})
}
