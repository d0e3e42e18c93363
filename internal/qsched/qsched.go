// Package qsched implements the concurrent micro-batching query scheduler
// behind the cluster's streaming and serving paths.
//
// The PR-1 streaming pipeline ran one query at a time through a single
// worker goroutine — the opposite of a serving path. SWAPHI (Liu &
// Schmidt, 2014) shows that multi-query batching is where coprocessor-class
// search throughput comes from: per-batch pre-processing amortises, and
// several batches in flight keep every device busy. qsched packages that
// shape generically:
//
//   - Submit enqueues a query and returns a Ticket (a future) immediately;
//   - an intake collector coalesces queued queries into adaptive
//     micro-batches: dispatch is immediate while the scheduler is idle, but
//     once batches are in flight the collector waits a short window so the
//     backlog coalesces into fuller batches (up to MaxBatch);
//   - up to MaxInFlight batches run concurrently through the caller's
//     batch function;
//   - identical in-flight queries (same cache key) share one Ticket, and
//     completed results land in an LRU cache so repeated queries are free;
//   - Close drains gracefully, CloseNow cancels the scheduler context so
//     queued work is dropped and in-flight batches abort at their next
//     query boundary — an abandoned consumer never strands a worker.
//
// The scheduler spawns no permanent goroutines: the collector starts on
// demand and exits as soon as the intake queue is empty.
package qsched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrClosed is returned by Submit and Do after Close or CloseNow.
var ErrClosed = errors.New("qsched: scheduler closed")

// errClosedNow resolves tickets stranded by CloseNow: queued jobs that
// never ran and in-flight batches aborted by the scheduler context. It
// wraps both ErrClosed (so serving layers classify the failure as a
// retryable shutdown, never a generic server error) and context.Canceled
// (the mechanism that aborted the work, which callers select on).
var errClosedNow = fmt.Errorf("%w (%w)", ErrClosed, context.Canceled)

// Options tunes a Scheduler. The zero value selects the defaults noted on
// each field.
type Options struct {
	// MaxBatch caps the queries coalesced into one micro-batch
	// (DefaultMaxBatch when 0).
	MaxBatch int
	// Window is how long the collector waits for more arrivals before
	// dispatching a partial batch while other batches are in flight
	// (DefaultWindow when 0, negative disables waiting). While the
	// scheduler is idle dispatch is always immediate, so the window costs
	// no latency on an unloaded system.
	Window time.Duration
	// MaxInFlight caps concurrently running micro-batches
	// (DefaultMaxInFlight when 0).
	MaxInFlight int
}

// Default knob values.
const (
	DefaultMaxBatch    = 32
	DefaultWindow      = 500 * time.Microsecond
	DefaultMaxInFlight = 4
)

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.Window == 0 {
		o.Window = DefaultWindow
	} else if o.Window < 0 {
		o.Window = 0
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = DefaultMaxInFlight
	}
	return o
}

// Ticket is the future of one submitted query. Multiple submissions of the
// same cache key may share one Ticket; treat the resolved value as
// read-only.
type Ticket[R any] struct {
	done   chan struct{}
	val    R
	err    error
	cached bool
}

func newTicket[R any]() *Ticket[R] { return &Ticket[R]{done: make(chan struct{})} }

func resolvedTicket[R any](v R, cached bool) *Ticket[R] {
	t := newTicket[R]()
	t.val = v
	t.cached = cached
	close(t.done)
	return t
}

// Done is closed once the ticket has resolved.
func (t *Ticket[R]) Done() <-chan struct{} { return t.done }

// Wait blocks until the ticket resolves or ctx is cancelled. A cancelled
// caller always gets ctx.Err(), even when the result is already there:
// whether the computation finished first is a race the caller cannot see,
// so it does not decide the answer.
func (t *Ticket[R]) Wait(ctx context.Context) (R, error) {
	if err := ctx.Err(); err != nil {
		var zero R
		return zero, err
	}
	select {
	case <-t.done:
		return t.val, t.err
	case <-ctx.Done():
		var zero R
		return zero, ctx.Err()
	}
}

// Cached reports whether the ticket was resolved straight from the cache
// at Submit time, without scheduling any work. (Submissions that joined an
// identical in-flight query share that query's ticket and report false;
// they are counted in Stats.Joined.) Valid only after Done.
func (t *Ticket[R]) Cached() bool { return t.cached }

// Stats is a point-in-time snapshot of scheduler activity.
type Stats struct {
	// Submitted counts Submit calls (including cache hits and joins).
	Submitted int64
	// Batches counts dispatched micro-batches; Batched the queries they
	// carried. Batched/Batches is the realised mean batch size.
	Batches int64
	Batched int64
	// Joined counts submissions that attached to an identical in-flight
	// query instead of queueing their own.
	Joined int64
	// CacheHits counts submissions answered directly from the cache.
	CacheHits int64
}

type job[Q, R any] struct {
	q      Q
	t      *Ticket[R]
	key    string
	hasKey bool
}

// Scheduler coalesces submitted queries into micro-batches and runs them
// through a caller-supplied batch function, up to MaxInFlight batches
// concurrently. It is safe for concurrent use.
type Scheduler[Q, R any] struct {
	run   func(ctx context.Context, batch []Q) ([]R, error)
	key   func(q Q) (string, bool)
	cache *Cache[R]
	opt   Options

	ctx    context.Context
	cancel context.CancelFunc
	slots  chan struct{} // counting semaphore: len == batches in flight

	mu         sync.Mutex
	queue      []*job[Q, R]          //sw:guardedBy(mu)
	pending    map[string]*Ticket[R] //sw:guardedBy(mu)
	collecting bool                  //sw:guardedBy(mu)
	closed     bool                  //sw:guardedBy(mu)
	stats      Stats                 //sw:guardedBy(mu)
}

// New builds a scheduler over a batch function. key derives the cache /
// dedup key of a query (nil, or a false second return, disables caching
// for that query); cache may be nil (no caching) or shared between
// schedulers. The scheduler's context is its own lifetime root — it is
// cancelled by Close/CloseNow, not by any request — while per-request
// cancellation rides on the context each Ticket.Wait receives.
//
//sw:ctxroot
func New[Q, R any](
	run func(ctx context.Context, batch []Q) ([]R, error),
	key func(q Q) (string, bool),
	cache *Cache[R],
	opt Options,
) *Scheduler[Q, R] {
	if run == nil {
		panic("qsched: nil run function")
	}
	opt = opt.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Scheduler[Q, R]{
		run:     run,
		key:     key,
		cache:   cache,
		opt:     opt,
		ctx:     ctx,
		cancel:  cancel,
		slots:   make(chan struct{}, opt.MaxInFlight),
		pending: make(map[string]*Ticket[R]),
	}
}

// Stats returns a snapshot of scheduler activity.
func (s *Scheduler[Q, R]) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Submit enqueues a query and returns its Ticket immediately. Cached
// results resolve the ticket synchronously; an identical in-flight query
// shares its ticket. Submit never blocks on query execution.
func (s *Scheduler[Q, R]) Submit(q Q) (*Ticket[R], error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.stats.Submitted++
	var key string
	var hasKey bool
	if s.key != nil {
		key, hasKey = s.key(q)
	}
	if hasKey {
		if s.cache != nil {
			if v, ok := s.cache.Get(key); ok {
				s.stats.CacheHits++
				return resolvedTicket(v, true), nil
			}
		}
		if t, ok := s.pending[key]; ok {
			s.stats.Joined++
			return t, nil
		}
	}
	t := newTicket[R]()
	if hasKey {
		s.pending[key] = t
	}
	s.queue = append(s.queue, &job[Q, R]{q: q, t: t, key: key, hasKey: hasKey})
	if !s.collecting {
		s.collecting = true
		go s.collect()
	}
	return t, nil
}

// Do submits a query and waits for its result, honouring ctx for the wait
// (cancelling ctx abandons the wait, not the computation: the result still
// lands in the cache for the next asker).
func (s *Scheduler[Q, R]) Do(ctx context.Context, q Q) (R, error) {
	t, err := s.Submit(q)
	if err != nil {
		var zero R
		return zero, err
	}
	return t.Wait(ctx)
}

// Close stops intake: queued and in-flight queries still complete, further
// Submit calls fail. Close is idempotent and never blocks on query
// execution.
func (s *Scheduler[Q, R]) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// CloseNow stops intake and cancels the scheduler context: queued queries
// resolve with the cancellation error without running, and in-flight
// batches abort at their next query boundary. Idempotent.
func (s *Scheduler[Q, R]) CloseNow() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.failQueued(errClosedNow)
}

// failQueued resolves every queued (not yet dispatched) job with err.
func (s *Scheduler[Q, R]) failQueued(err error) {
	s.mu.Lock()
	queued := s.queue
	s.queue = nil
	s.mu.Unlock()
	var zero R
	for _, j := range queued {
		s.resolve(j, zero, err, false)
	}
}

// collect is the intake loop: it runs only while the queue is non-empty,
// coalescing jobs into micro-batches and dispatching them as in-flight
// slots free up.
func (s *Scheduler[Q, R]) collect() {
	for {
		s.mu.Lock()
		if len(s.queue) == 0 {
			s.collecting = false
			s.mu.Unlock()
			return
		}
		// Adaptive coalescing: while batches are in flight and this one is
		// not yet full, wait a short window so the backlog coalesces into
		// fewer, fuller batches. When the scheduler is idle, dispatch
		// immediately — the window never delays an unloaded system.
		if s.opt.Window > 0 && len(s.queue) < s.opt.MaxBatch && len(s.slots) > 0 && !s.closed {
			s.mu.Unlock()
			select {
			case <-time.After(s.opt.Window):
			case <-s.ctx.Done():
				s.failQueued(errClosedNow)
				s.mu.Lock()
				s.collecting = false
				s.mu.Unlock()
				return
			}
			s.mu.Lock()
		}
		n := len(s.queue)
		if n == 0 {
			// CloseNow drained the queue while we slept in the window.
			s.collecting = false
			s.mu.Unlock()
			return
		}
		if n > s.opt.MaxBatch {
			n = s.opt.MaxBatch
		}
		batch := make([]*job[Q, R], n)
		copy(batch, s.queue)
		s.queue = s.queue[n:]
		s.stats.Batches++
		s.stats.Batched += int64(n)
		s.mu.Unlock()

		select {
		case s.slots <- struct{}{}:
		case <-s.ctx.Done():
			err := errClosedNow
			var zero R
			for _, j := range batch {
				s.resolve(j, zero, err, false)
			}
			s.failQueued(err)
			s.mu.Lock()
			s.collecting = false
			s.mu.Unlock()
			return
		}
		go s.runBatch(batch)
	}
}

// runBatch executes one micro-batch and resolves its tickets. A batch-wide
// failure falls back to per-query execution so one poisoned query cannot
// fail its batch neighbours.
func (s *Scheduler[Q, R]) runBatch(batch []*job[Q, R]) {
	defer func() { <-s.slots }()
	qs := make([]Q, len(batch))
	for i, j := range batch {
		qs[i] = j.q
	}
	rs, err := s.run(s.ctx, qs)
	if err == nil && len(rs) != len(batch) {
		err = fmt.Errorf("qsched: batch function returned %d results for %d queries", len(rs), len(batch))
	}
	if err != nil && len(batch) > 1 && s.ctx.Err() == nil {
		// Failure isolation: retry queries individually.
		var zero R
		for _, j := range batch {
			r, jerr := s.run(s.ctx, []Q{j.q})
			switch {
			case jerr != nil:
				s.resolve(j, zero, jerr, false)
			case len(r) != 1:
				s.resolve(j, zero, fmt.Errorf("qsched: batch function returned %d results for 1 query", len(r)), false)
			default:
				s.resolve(j, r[0], nil, true)
			}
		}
		return
	}
	if err != nil && s.ctx.Err() != nil {
		// The batch died because CloseNow cancelled the scheduler context,
		// not on its own merits: resolve with the shutdown error so waiters
		// see a retryable closed scheduler rather than a bare cancellation.
		err = errClosedNow
	}
	var zero R
	for i, j := range batch {
		if err != nil {
			s.resolve(j, zero, err, false)
		} else {
			s.resolve(j, rs[i], nil, true)
		}
	}
}

// resolve completes one job's ticket, retires its pending-key entry and,
// on success, caches the value.
func (s *Scheduler[Q, R]) resolve(j *job[Q, R], v R, err error, cacheable bool) {
	if j.hasKey {
		s.mu.Lock()
		if s.pending[j.key] == j.t {
			delete(s.pending, j.key)
		}
		s.mu.Unlock()
		if err == nil && cacheable && s.cache != nil {
			s.cache.Add(j.key, v)
		}
	}
	j.t.val = v
	j.t.err = err
	close(j.t.done)
}
