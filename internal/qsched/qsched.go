// Package qsched implements the concurrent query scheduler behind a
// cluster's scheduled doors: each cluster builds one, and every scheduled
// search waits in its queue.
//
// The unit it schedules is one query, which already runs on every worker;
// the one knob, maxInFlight, is how many run at once — the inter-task
// against intra-task split that SWAPHI (Liu & Schmidt, 2014) and the KNL
// study of Rucci et al. measure:
//
//   - Do submits a query and waits for its result;
//   - up to maxInFlight queries run concurrently through the caller's run
//     function, the rest wait in submission order, and each query's
//     waiters resolve as soon as that query is done;
//   - identical in-flight queries (same cache key) share one execution,
//     and completed results land in an LRU cache so repeated queries are
//     free;
//   - CloseNow cancels the scheduler context so queued queries are dropped
//     and in-flight ones abort at their next cancellation check — an
//     abandoned caller never strands a worker.
//
// The scheduler spawns no permanent goroutines: a runner starts per free
// slot on demand and exits as soon as the queue is empty.
package qsched

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrClosed is returned by Do after CloseNow.
var ErrClosed = errors.New("qsched: scheduler closed")

// errClosedNow resolves tickets stranded by CloseNow: queued jobs that
// never ran and in-flight queries aborted by the scheduler context. It
// wraps both ErrClosed (so serving layers classify the failure as a
// retryable shutdown, never a generic server error) and context.Canceled
// (the mechanism that aborted the work, which callers select on).
var errClosedNow = fmt.Errorf("%w (%w)", ErrClosed, context.Canceled)

// defaultMaxInFlight is the in-flight bound New uses when given none.
const defaultMaxInFlight = 4

// ticket is the future of one submitted query. Multiple submissions of the
// same cache key may share one ticket; treat the resolved value as
// read-only.
type ticket[R any] struct {
	done chan struct{}
	val  R
	err  error
}

func newTicket[R any]() *ticket[R] { return &ticket[R]{done: make(chan struct{})} }

func resolvedTicket[R any](v R) *ticket[R] {
	t := newTicket[R]()
	t.val = v
	close(t.done)
	return t
}

// Wait blocks until the ticket resolves or ctx is cancelled. A cancelled
// caller always gets ctx.Err(), even when the result is already there:
// whether the computation finished first is a race the caller cannot see,
// so it does not decide the answer.
func (t *ticket[R]) Wait(ctx context.Context) (R, error) {
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

// Stats is a point-in-time snapshot of scheduler activity.
type Stats struct {
	// Submitted counts submissions (including cache hits and joins).
	Submitted int64
	// Joined counts submissions that attached to an identical in-flight
	// query instead of queueing their own.
	Joined int64
	// CacheHits counts submissions answered directly from the cache.
	CacheHits int64
}

type job[Q, R any] struct {
	q      Q
	t      *ticket[R]
	key    string
	hasKey bool
}

// Scheduler runs submitted queries through a caller-supplied run
// function, up to maxInFlight at once and the rest in submission order. It
// is safe for concurrent use.
type Scheduler[Q, R any] struct {
	run         func(ctx context.Context, q Q) (R, error)
	key         func(q Q) (string, bool)
	cache       *Cache[R]
	maxInFlight int

	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	queue   []*job[Q, R]          //sw:guardedBy(mu)
	pending map[string]*ticket[R] //sw:guardedBy(mu)
	running int                   //sw:guardedBy(mu)
	closed  bool                  //sw:guardedBy(mu)
	stats   Stats                 //sw:guardedBy(mu)
}

// New builds a scheduler over a run function that runs up to maxInFlight
// queries at once (defaultMaxInFlight when maxInFlight <= 0). key derives
// the cache / dedup key of a query (nil, or a false second return,
// disables caching for that query); cache may be nil (no caching). The
// scheduler's context is its own lifetime root — it is cancelled by
// CloseNow, not by any request — while per-request cancellation rides on
// the context each Do receives.
//
//sw:ctxroot
func New[Q, R any](
	run func(ctx context.Context, q Q) (R, error),
	key func(q Q) (string, bool),
	cache *Cache[R],
	maxInFlight int,
) *Scheduler[Q, R] {
	if run == nil {
		panic("qsched: nil run function")
	}
	if maxInFlight <= 0 {
		maxInFlight = defaultMaxInFlight
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Scheduler[Q, R]{
		run:         run,
		key:         key,
		cache:       cache,
		maxInFlight: maxInFlight,
		ctx:         ctx,
		cancel:      cancel,
		pending:     make(map[string]*ticket[R]),
	}
}

// Stats returns a snapshot of scheduler activity.
func (s *Scheduler[Q, R]) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// submit enqueues a query and returns its ticket immediately. Cached
// results resolve the ticket synchronously; an identical in-flight query
// shares its ticket. submit never blocks on query execution.
func (s *Scheduler[Q, R]) submit(q Q) (*ticket[R], error) {
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
				return resolvedTicket(v), nil
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
	j := &job[Q, R]{q: q, t: t, key: key, hasKey: hasKey}
	if s.running < s.maxInFlight {
		s.running++
		go s.runFrom(j)
	} else {
		s.queue = append(s.queue, j)
	}
	return t, nil
}

// Do submits a query and waits for its result, honouring ctx for the wait
// (cancelling ctx abandons the wait, not the computation: the result still
// lands in the cache for the next asker).
func (s *Scheduler[Q, R]) Do(ctx context.Context, q Q) (R, error) {
	t, err := s.submit(q)
	if err != nil {
		var zero R
		return zero, err
	}
	return t.Wait(ctx)
}

// CloseNow stops intake and cancels the scheduler context: queued queries
// resolve with the cancellation error without running, and in-flight ones
// abort at their next cancellation check. Idempotent.
func (s *Scheduler[Q, R]) CloseNow() {
	s.mu.Lock()
	s.closed = true
	queued := s.queue
	s.queue = nil
	s.mu.Unlock()
	s.cancel()
	var zero R
	for _, j := range queued {
		s.resolve(j, zero, errClosedNow)
	}
}

// runFrom holds one in-flight slot: it runs j, then keeps taking the
// oldest queued job until the queue is empty, and gives the slot back.
func (s *Scheduler[Q, R]) runFrom(j *job[Q, R]) {
	for j != nil {
		s.runOne(j)
		s.mu.Lock()
		if len(s.queue) == 0 {
			j = nil
			s.running--
		} else {
			j = s.queue[0]
			s.queue[0] = nil // release for GC
			s.queue = s.queue[1:]
		}
		s.mu.Unlock()
	}
}

// runOne executes one query and resolves its ticket. A query that fails
// because CloseNow cancelled the scheduler context — or that CloseNow
// reached before it started — resolves with the shutdown error, so waiters
// see a retryable closed scheduler rather than a bare cancellation.
func (s *Scheduler[Q, R]) runOne(j *job[Q, R]) {
	var (
		v   R
		err = s.ctx.Err()
	)
	if err == nil {
		v, err = s.run(s.ctx, j.q)
	}
	if err != nil && s.ctx.Err() != nil {
		err = errClosedNow
	}
	s.resolve(j, v, err)
}

// resolve completes one job's ticket, retires its pending-key entry and,
// on success, caches the value.
func (s *Scheduler[Q, R]) resolve(j *job[Q, R], v R, err error) {
	if err != nil {
		var zero R
		v = zero
	}
	if j.hasKey {
		s.mu.Lock()
		if s.pending[j.key] == j.t {
			delete(s.pending, j.key)
		}
		s.mu.Unlock()
		if err == nil && s.cache != nil {
			s.cache.Add(j.key, v)
		}
	}
	j.t.val = v
	j.t.err = err
	close(j.t.done)
}
