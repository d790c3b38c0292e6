package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// observeRequest is the observe body as encoding/json sees it: the
// window length and a sparse map from decimal item key to count.
type observeRequest struct {
	WindowSec float64            `json:"window_sec"`
	Counts    map[string]float64 `json:"counts"`
}

// parseObserveReference is the map-based decoder ParseObserve replaced,
// kept as the reference the one-pass decoder is checked against: on
// every body ParseObserve accepts, it must accept with the same window
// and bit-equal counts.
func parseObserveReference(data []byte, items int) (float64, []float64, error) {
	var req observeRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return 0, nil, fmt.Errorf("serve: malformed observe body: %v", err)
	}
	if !(req.WindowSec > 0) || math.IsInf(req.WindowSec, 1) {
		return 0, nil, fmt.Errorf("serve: window_sec=%g, want finite > 0", req.WindowSec)
	}
	if len(req.Counts) > items {
		return 0, nil, fmt.Errorf("serve: %d distinct items in window exceeds catalog size %d", len(req.Counts), items)
	}
	counts := make([]float64, items)
	for key, c := range req.Counts {
		i, err := strconv.Atoi(key)
		if err != nil {
			return 0, nil, fmt.Errorf("serve: item key %q is not an integer index", key)
		}
		if i < 0 || i >= items {
			return 0, nil, fmt.Errorf("serve: item %d outside catalog [0, %d)", i, items)
		}
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return 0, nil, fmt.Errorf("serve: item %d count %g, want finite ≥ 0", i, c)
		}
		counts[i] = c
	}
	return req.WindowSec, counts, nil
}
