package sim

import (
	"math"
	"sync"
	"sync/atomic"

	"impatience/internal/trace"
)

// shardChunk is one broadcast unit of the sharded driver: a freshly
// allocated, validated, time-ordered contact block plus the global
// ordinal of its first contact. Chunks are written once by the producer
// and only read by the workers, so sharing them is race-free.
type shardChunk struct {
	base     int64
	contacts []trace.Contact
}

// shardChunkSize balances broadcast overhead (one channel send per
// worker per chunk) against pipeline latency and chunk memory.
const shardChunkSize = 4096

// shardError carries a failure plus its deterministic priority: the
// global contact ordinal it occurred at, and a class that replays the
// serial executor's intra-contact order — stream validation (class −1)
// precedes every runner step of that contact, runner steps happen in
// config order (class = config index), and finish errors (ordinal
// MaxInt64) come after all steps, again in config order.
type shardError struct {
	ord   int64
	class int
	err   error
}

func (e shardError) before(o shardError) bool {
	if e.ord != o.ord {
		return e.ord < o.ord
	}
	return e.class < o.class
}

// RunBatchSharded is RunBatch partitioned across a worker set: one
// producer goroutine drains and validates the shared contact stream,
// broadcasts it in chunks, and each worker steps the runners it owns —
// config i belongs to worker i mod W. Because every runner's state and
// RNG streams are private and each consumes the identical validated
// contact sequence, Results[i] is bit-identical to RunBatch's — and
// therefore to Run(cfgs[i]) — at every shard count; shards ≤ 1 is
// exactly RunBatch. Errors are selected by (contact ordinal, config
// index), reproducing the serial executor's first-failure semantics
// regardless of worker scheduling.
func RunBatchSharded(cfgs []Config, contacts trace.Source, shards int) ([]*Result, error) {
	if shards <= 1 {
		return RunBatch(cfgs, contacts)
	}
	runners, err := newRunners(cfgs, contacts)
	if err != nil {
		return nil, err
	}
	nodes, duration := contacts.Nodes(), contacts.Duration()

	workers := shards
	if workers > len(cfgs) {
		workers = len(cfgs)
	}

	var stop atomic.Bool
	feeds := make([]chan shardChunk, workers)
	for w := range feeds {
		feeds[w] = make(chan shardChunk, 4)
	}

	// Producer: generate → validate → chunk → broadcast, on its own
	// goroutine so it overlaps with the workers; the caller joins
	// everyone at the end.
	var prodErr *shardError
	var prodWG sync.WaitGroup
	prodWG.Add(1)
	go func() {
		defer prodWG.Done()
		defer func() {
			for _, f := range feeds {
				close(f)
			}
		}()
		prevT := 0.0
		var ord int64
		for prodErr == nil {
			// The source bulk-fills the broadcast chunk in place — no
			// per-contact staging copy. Each chunk is freshly allocated
			// because the workers hold references to broadcast chunks.
			chunk := make([]trace.Contact, shardChunkSize)
			n := trace.FillBatch(contacts, chunk)
			if n == 0 {
				break
			}
			valid := 0
			for k := range chunk[:n] {
				if err := trace.CheckStreamContact(chunk[k], prevT, nodes, duration); err != nil {
					prodErr = &shardError{ord: ord + int64(valid), class: -1, err: err}
					break
				}
				prevT = chunk[k].T
				valid++
			}
			// Broadcast the valid prefix even when validation failed
			// mid-chunk: the serial executor steps every contact before the
			// failing one, and the deterministic error selection needs the
			// workers to have seen exactly that prefix.
			if valid > 0 {
				ck := shardChunk{base: ord, contacts: chunk[:valid]}
				for _, f := range feeds {
					f <- ck
				}
				ord += int64(valid)
				if stop.Load() {
					return
				}
			}
		}
		if es, ok := contacts.(trace.ErrSource); ok && prodErr == nil {
			if err := es.Err(); err != nil {
				prodErr = &shardError{ord: ord, class: -1, err: err}
			}
		}
	}()

	// Workers: step owned runners over every broadcast contact; on a
	// step error, record it, raise the stop flag, and keep draining the
	// feed so the producer never blocks. Finish errors rank after all
	// step errors (ordinal MaxInt64), matching the serial executor,
	// which only finishes once the whole stream has been stepped.
	results := make([]*Result, len(cfgs))
	workerErrs := make([]*shardError, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var fail *shardError
			for ck := range feeds[w] {
				if fail != nil {
					continue // drain
				}
				for j, c := range ck.contacts {
					for idx := w; idx < len(runners); idx += workers {
						if err := runners[idx].step(c); err != nil {
							fail = &shardError{ord: ck.base + int64(j), class: idx, err: err}
							stop.Store(true)
							break
						}
					}
					if fail != nil {
						break
					}
				}
			}
			if fail == nil {
				for idx := w; idx < len(runners); idx += workers {
					res, err := runners[idx].finish()
					if err != nil {
						fail = &shardError{ord: math.MaxInt64, class: idx, err: batchErr(idx, len(runners), err)}
						break
					}
					results[idx] = res
				}
			}
			workerErrs[w] = fail
		}(w)
	}
	prodWG.Wait()
	wg.Wait()

	best := prodErr
	for _, we := range workerErrs {
		if we != nil && (best == nil || we.before(*best)) {
			best = we
		}
	}
	if best != nil {
		return nil, best.err
	}
	return results, nil
}
