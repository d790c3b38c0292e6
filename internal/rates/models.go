package rates

import (
	"fmt"
	"math"
	"math/rand/v2"

	"impatience/internal/mobility"
)

// CommunityConfig parameterizes the community/block model: Nodes split
// as evenly as possible across Communities (the first Nodes mod
// Communities communities get one extra member), intra-community pairs
// meeting at rate In and cross-community pairs at rate Out.
type CommunityConfig struct {
	Nodes       int
	Communities int
	In          float64 // intra-community pair rate
	Out         float64 // inter-community pair rate
}

// NewCommunity builds the community/block model.
func NewCommunity(cfg CommunityConfig) (*Model, error) {
	if cfg.Communities <= 0 || cfg.Nodes < cfg.Communities {
		return nil, fmt.Errorf("%w: %d nodes across %d communities", ErrModel, cfg.Nodes, cfg.Communities)
	}
	sizes := make([]int, cfg.Communities)
	base, extra := cfg.Nodes/cfg.Communities, cfg.Nodes%cfg.Communities
	for c := range sizes {
		sizes[c] = base
		if c < extra {
			sizes[c]++
		}
	}
	block := make([][]float64, cfg.Communities)
	for c := range block {
		block[c] = make([]float64, cfg.Communities)
		for d := range block[c] {
			if c == d {
				block[c][d] = cfg.In
			} else {
				block[c][d] = cfg.Out
			}
		}
	}
	return New(sizes, block, nil)
}

// perNodeRate is the paper scenario's contact intensity per node:
// µ = 0.05 over N = 50 gives 0.05·49 = 2.45 meetings per node-minute.
const perNodeRate = 2.45

// PaperCommunity is the community model the scale experiments share:
// every node keeps the paper scenario's meeting budget of 2.45 meetings
// per minute, 70 % of them inside its community and 30 % across, so a
// node's experience stays at paper defaults while N and the total
// contact volume grow.
func PaperCommunity(nodes, communities int) (*Model, error) {
	if communities <= 0 || nodes < 2*communities {
		return nil, fmt.Errorf("%w: %d nodes across %d communities leave no intra-community pairs", ErrModel, nodes, communities)
	}
	per := nodes / communities
	return NewCommunity(CommunityConfig{
		Nodes:       nodes,
		Communities: communities,
		In:          0.7 * perNodeRate / float64(per-1),
		Out:         0.3 * perNodeRate / float64(nodes-per),
	})
}

// HubSpokeConfig parameterizes the hub-spoke model: Hubs relay nodes
// (community 0) and Nodes−Hubs spokes (community 1), with hub-hub pairs
// at HubHub, hub-spoke pairs at HubSpoke, and spoke-spoke pairs at
// SpokeSpoke (typically near zero — spokes communicate through hubs).
type HubSpokeConfig struct {
	Nodes      int
	Hubs       int
	HubHub     float64
	HubSpoke   float64
	SpokeSpoke float64
}

// NewHubSpoke builds the hub-spoke model.
func NewHubSpoke(cfg HubSpokeConfig) (*Model, error) {
	if cfg.Hubs <= 0 || cfg.Nodes <= cfg.Hubs {
		return nil, fmt.Errorf("%w: %d hubs in %d nodes", ErrModel, cfg.Hubs, cfg.Nodes)
	}
	block := [][]float64{
		{cfg.HubHub, cfg.HubSpoke},
		{cfg.HubSpoke, cfg.SpokeSpoke},
	}
	return New([]int{cfg.Hubs, cfg.Nodes - cfg.Hubs}, block, nil)
}

// DistanceConfig parameterizes the distance-kernel model: nodes get home
// positions from a random-waypoint fleet placement over a Width×Height
// area (internal/mobility), the area is partitioned into CellsX×CellsY
// grid cells, and two cells meet at rate Mu0·exp(−d/Lambda) where d is
// the distance between cell centers — so co-located nodes meet at Mu0
// and the rate decays with the exponential kernel the Cabspotting
// extraction exhibits. Cells left empty by the placement are dropped, so
// the realized community count is at most CellsX·CellsY.
type DistanceConfig struct {
	Nodes  int
	CellsX int
	CellsY int
	Width  float64 // meters
	Height float64 // meters
	Mu0    float64 // pair rate at distance zero
	Lambda float64 // kernel decay length, meters
	Seed   uint64  // home-position placement seed
}

// NewDistanceKernel builds the distance-kernel model. Placement is a
// deterministic function of the seed.
func NewDistanceKernel(cfg DistanceConfig) (*Model, error) {
	switch {
	case cfg.Nodes < 2:
		return nil, fmt.Errorf("%w: %d nodes", ErrModel, cfg.Nodes)
	case cfg.CellsX <= 0 || cfg.CellsY <= 0:
		return nil, fmt.Errorf("%w: %dx%d grid", ErrModel, cfg.CellsX, cfg.CellsY)
	case cfg.Mu0 <= 0 || math.IsNaN(cfg.Mu0) || math.IsInf(cfg.Mu0, 0):
		return nil, fmt.Errorf("%w: mu0 %g", ErrModel, cfg.Mu0)
	case cfg.Lambda <= 0 || math.IsNaN(cfg.Lambda) || math.IsInf(cfg.Lambda, 0):
		return nil, fmt.Errorf("%w: lambda %g", ErrModel, cfg.Lambda)
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xd15ce11))
	fleet, err := mobility.NewRWP(mobility.RWPConfig{
		Nodes:    cfg.Nodes,
		Width:    cfg.Width,
		Height:   cfg.Height,
		MinSpeed: 1,
		MaxSpeed: 1,
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrModel, err)
	}

	// Assign each node's home position to a grid cell, then compact away
	// empty cells (NewAssigned requires every community populated).
	cw, ch := cfg.Width/float64(cfg.CellsX), cfg.Height/float64(cfg.CellsY)
	cell := make([]int, cfg.Nodes)
	counts := make([]int, cfg.CellsX*cfg.CellsY)
	for i := 0; i < cfg.Nodes; i++ {
		p := fleet.Position(i)
		cx, cy := int(p.X/cw), int(p.Y/ch)
		if cx >= cfg.CellsX {
			cx = cfg.CellsX - 1
		}
		if cy >= cfg.CellsY {
			cy = cfg.CellsY - 1
		}
		cell[i] = cy*cfg.CellsX + cx
		counts[cell[i]]++
	}
	remap := make([]int32, len(counts))
	centers := make([]mobility.Point, 0, len(counts))
	nc := int32(0)
	for c, n := range counts {
		if n == 0 {
			remap[c] = -1
			continue
		}
		remap[c] = nc
		nc++
		centers = append(centers, mobility.Point{
			X: (float64(c%cfg.CellsX) + 0.5) * cw,
			Y: (float64(c/cfg.CellsX) + 0.5) * ch,
		})
	}
	comm := make([]int32, cfg.Nodes)
	for i, c := range cell {
		comm[i] = remap[c]
	}
	block := make([][]float64, nc)
	for c := range block {
		block[c] = make([]float64, nc)
		for d := range block[c] {
			block[c][d] = cfg.Mu0 * math.Exp(-centers[c].Dist(centers[d])/cfg.Lambda)
		}
	}
	return NewAssigned(comm, block, nil)
}
