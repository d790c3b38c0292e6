package sim

import (
	"fmt"

	"impatience/internal/trace"
)

// RunBatch executes M independent simulations in lockstep over one shared
// contact stream: every configuration gets its own runner — caches, policy,
// demand process, fault timeline, RNGs — and each contact drawn from the
// source is fed to every runner in configuration order before the next is
// drawn. One trial therefore costs one trace generation and one pass in
// O(1) contact memory, however many schemes it compares.
//
// Determinism: a runner's RNG streams are seeded from its own cfg.Seed
// and its policy and fault state are private, so Results[i] is
// bit-identical to Run(cfgs[i]) driven by the same contact sequence —
// Run is exactly a one-config batch.
//
// Batch configs must leave Contacts unset; the shared source drives every
// runner and supplies the common (nodes, duration). Contacts are
// contract-checked once per contact here — not once per runner — and a
// mid-stream source error aborts the whole batch.
func RunBatch(cfgs []Config, contacts trace.Source) ([]*Result, error) {
	runners, err := newRunners(cfgs, contacts)
	if err != nil {
		return nil, err
	}
	// Contacts are drawn in batches through the trace.BulkSource seam
	// (buffering only — the source consumes its RNG in the identical
	// order, so the sequence and every runner's digest are unchanged) and
	// each is validated once, then fed to every runner.
	nodes, duration := contacts.Nodes(), contacts.Duration()
	prevT := 0.0
	buf := make([]trace.Contact, contactBatchSize)
	for {
		n := trace.FillBatch(contacts, buf)
		if n == 0 {
			break
		}
		for k := range buf[:n] {
			c := buf[k]
			if err := trace.CheckStreamContact(c, prevT, nodes, duration); err != nil {
				return nil, err
			}
			prevT = c.T
			for _, r := range runners {
				if err := r.step(c); err != nil {
					return nil, err
				}
			}
		}
	}
	if es, ok := contacts.(trace.ErrSource); ok {
		if err := es.Err(); err != nil {
			return nil, err
		}
	}
	results := make([]*Result, len(runners))
	for i, r := range runners {
		res, err := r.finish()
		if err != nil {
			return nil, batchErr(i, len(runners), err)
		}
		results[i] = res
	}
	return results, nil
}

// newRunners is the one runner-construction path of the executors: it
// checks the shared source's dimensions, then validates and builds one
// runner per config over a private copy of it (as Run takes cfg by
// value), all taking (nodes, duration) from the source.
func newRunners(cfgs []Config, contacts trace.Source) ([]*runner, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sim: empty batch")
	}
	if contacts == nil {
		return nil, fmt.Errorf("sim: nil contact source")
	}
	nodes, duration := contacts.Nodes(), contacts.Duration()
	if err := trace.CheckDims(nodes, duration); err != nil {
		return nil, err
	}
	runners := make([]*runner, len(cfgs))
	for i := range cfgs {
		cfg := cfgs[i]
		if cfg.Contacts != nil {
			return nil, batchErr(i, len(cfgs), fmt.Errorf("sim: batch config must leave Contacts unset (the shared source drives every runner)"))
		}
		if err := validate(&cfg, nodes); err != nil {
			return nil, batchErr(i, len(cfgs), err)
		}
		r, err := buildRunner(&cfg, nodes, duration)
		if err != nil {
			return nil, batchErr(i, len(cfgs), err)
		}
		runners[i] = r
	}
	return runners, nil
}

// batchErr names the failing config of a multi-config batch; a single
// run's error passes through unwrapped.
func batchErr(i, n int, err error) error {
	if n == 1 {
		return err
	}
	return fmt.Errorf("sim: batch config %d: %w", i, err)
}
