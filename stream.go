package heterosw

import (
	"context"
	"fmt"
	"sync"

	"heterosw/internal/qsched"
)

// StreamResult is one delivery of a streaming session.
type StreamResult struct {
	// Index is the query's submission order, starting at 0; results are
	// delivered in submission order.
	Index int
	// Query is the submitted request's query.
	Query Sequence
	// Result is the search outcome; nil when Err is set. Results may be
	// shared with other submissions of the same residues (the scheduler
	// dedups and caches); treat them as read-only.
	Result *ClusterResult
	// Err reports a failed search (the stream continues past failures).
	Err error
}

// streamBuffer is the Results channel depth: completed results waiting for
// a slow consumer are bounded by this many deliveries plus the reorder
// window of in-flight queries.
const streamBuffer = 64

// streamSub is one submission awaiting ordered delivery.
type streamSub struct {
	query  Sequence
	ticket *qsched.Ticket[*ClusterResult]
}

// Stream is one streaming session over a Cluster on a query scheduler of
// its own: up to MaxInFlight submissions run concurrently on the cluster's
// executor, the rest wait in submission order, and a reorder buffer
// delivers results in submission order on Results.
//
// Lifecycle: Close ends intake and lets queued work drain; CloseNow (or
// cancelling the context passed to NewStream) additionally drops queued
// work and aborts in-flight queries at their next cancellation check, so
// an abandoned consumer never strands a worker goroutine. Results is
// closed in every case.
type Stream struct {
	ctx     context.Context
	cancel  context.CancelFunc
	sched   *qsched.Scheduler[job, *ClusterResult]
	prepare func(Request) (job, error) // the cluster's validation
	out     chan StreamResult
	stop    func() bool // releases the context.AfterFunc registration

	// window bounds forwarded-but-undelivered submissions: requests past
	// it wait in `waiting` (holding only the prepared request) until
	// delivery frees a slot, so completed-result memory stays bounded
	// however far the producer runs ahead of the Results consumer.
	window int

	mu   sync.Mutex
	cond *sync.Cond
	// submitted, not yet handed to the scheduler
	//sw:guardedBy(mu)
	waiting []job
	// in the scheduler, awaiting ordered delivery
	//sw:guardedBy(mu)
	subs []streamSub
	// no further Submits (Close, CloseNow or ctx cancel)
	//sw:guardedBy(mu)
	closed bool
	// CloseNow / ctx cancel: drop instead of drain
	//sw:guardedBy(mu)
	aborted bool
	//sw:guardedBy(mu)
	delivering bool
	//sw:guardedBy(mu)
	outClosed bool
}

// NewStream opens a streaming session over the cluster. The session
// inherits the cluster's scheduling knobs and shares its result cache;
// cancelling ctx is equivalent to CloseNow. A nil ctx means
// context.Background. Multiple streams may run concurrently over one
// cluster.
func (c *Cluster) NewStream(ctx context.Context) *Stream {
	if ctx == nil {
		ctx = context.Background()
	}
	sctx, cancel := context.WithCancel(ctx)
	maxInFlight := c.schedOpt.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = qsched.DefaultMaxInFlight
	}
	st := &Stream{
		ctx:     sctx,
		cancel:  cancel,
		sched:   c.newScheduler(),
		prepare: c.prepare,
		out:     make(chan StreamResult, streamBuffer),
		window:  streamBuffer + maxInFlight,
	}
	st.cond = sync.NewCond(&st.mu)
	st.stop = context.AfterFunc(sctx, st.abort)
	return st
}

// forwardLocked hands waiting queries to the scheduler while delivery
// slots are free. Callers hold st.mu.
//
//sw:locked(mu)
func (st *Stream) forwardLocked() {
	for len(st.waiting) > 0 && len(st.subs) < st.window && !st.aborted {
		jb := st.waiting[0]
		st.waiting[0] = job{} // release for GC
		st.waiting = st.waiting[1:]
		t, err := st.sched.Submit(jb)
		if err != nil {
			// The scheduler is already torn down (an abort race); the
			// stream is going away with it.
			return
		}
		st.subs = append(st.subs, streamSub{query: jb.query, ticket: t})
	}
}

// Submit validates a request, enqueues it on the stream and returns
// immediately; the matching StreamResult arrives on Results in submission
// order. A request the cluster's validation refuses (see Do) fails here,
// before it is queued. Submit never blocks (the intake queue is unbounded
// in requests, which cost only a reference each), so the
// submit-everything-then-drain pattern is safe for any backlog size; the
// scheduler is fed at most the stream's forwarding window (streamBuffer
// plus MaxInFlight) ahead of the Results consumer, which bounds
// completed-result memory however large the backlog. Submit fails after
// Close.
func (st *Stream) Submit(req Request) error {
	jb, err := st.prepare(req)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return fmt.Errorf("heterosw: cluster stream closed")
	}
	st.waiting = append(st.waiting, jb)
	st.forwardLocked()
	if !st.delivering {
		st.delivering = true
		go st.deliver()
	}
	st.cond.Signal()
	return nil
}

// Results returns the stream delivery channel. It is closed after Close
// once every submitted query has been delivered, or promptly after
// CloseNow / context cancellation.
func (st *Stream) Results() <-chan StreamResult { return st.out }

// Close ends intake: no further Submit calls are accepted, queued and
// in-flight queries still complete, and Results closes once every
// submitted query has been delivered. Close never blocks and is
// idempotent.
func (st *Stream) Close() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	delivering := st.delivering
	st.cond.Broadcast()
	st.mu.Unlock()
	// The scheduler is not closed here: queries still waiting for a
	// delivery slot get forwarded as the consumer drains. The stream is
	// the scheduler's only producer, so closing intake adds nothing; the
	// scheduler idles (no goroutines) once drained and is torn down when
	// delivery finishes.
	if !delivering {
		// Nothing was ever submitted: there is no delivery goroutine to
		// close the channel.
		st.finish()
	}
}

// CloseNow ends the session immediately: intake stops, queued queries are
// dropped, in-flight queries abort at their next cancellation check and
// Results closes without delivering the remainder. Safe to call from any
// goroutine, any number of times, including after Close.
func (st *Stream) CloseNow() {
	st.cancel()
	st.abort()
}

// abort is the CloseNow / context-cancellation path; it must be
// idempotent.
func (st *Stream) abort() {
	st.sched.CloseNow()
	st.mu.Lock()
	st.closed = true
	st.aborted = true
	st.waiting = nil // queued work is dropped, not drained
	delivering := st.delivering
	st.cond.Broadcast()
	st.mu.Unlock()
	if !delivering {
		st.finish()
	}
}

// finish closes the Results channel exactly once and releases the
// context resources.
func (st *Stream) finish() {
	st.mu.Lock()
	done := st.outClosed
	st.outClosed = true
	st.mu.Unlock()
	if done {
		return
	}
	close(st.out)
	st.stop()
	st.cancel()
}

// deliver is the reorder buffer: it walks submissions in order, waits for
// each ticket and forwards the result, so out-of-order completions
// are delivered in submission order. It exits — closing Results — when the
// stream is closed and drained, or as soon as the stream context is
// cancelled. Consumed submissions are popped from the front of subs (a
// long-lived stream retains memory proportional to its backlog, not to
// everything it ever carried), and each pop frees a forwarding slot for
// the next waiting query.
func (st *Stream) deliver() {
	defer st.finish()
	for i := 0; ; i++ {
		st.mu.Lock()
		for len(st.subs) == 0 && !st.closed {
			st.cond.Wait()
		}
		if len(st.subs) == 0 {
			// Closed and drained: forwardLocked keeps subs non-empty
			// whenever waiting queries remain (outside an abort, where
			// waiting is dropped), so nothing is left behind.
			st.mu.Unlock()
			return
		}
		sub := st.subs[0]
		st.subs[0] = streamSub{} // release for GC
		st.subs = st.subs[1:]
		st.forwardLocked() // a delivery slot freed: pull the next query in
		st.mu.Unlock()

		res, err := sub.ticket.Wait(st.ctx)
		if st.ctx.Err() != nil {
			return
		}
		select {
		case st.out <- StreamResult{Index: i, Query: sub.query, Result: res, Err: err}:
		case <-st.ctx.Done():
			return
		}
	}
}
