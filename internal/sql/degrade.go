package sql

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Queries against a partially failed cluster must not hang: a stalled or
// unreachable partition would otherwise block the scatter-gather scan
// forever. This file adds per-partition timeouts and a caller-chosen
// degradation policy to the executor. The default policy (PolicyNone)
// keeps the fast path: no access checks, no per-partition goroutines.

// Policy selects how a query handles an unreachable or stalled partition.
type Policy int

// Degradation policies.
const (
	// PolicyNone runs the query unguarded (the default): a faulted
	// partition is not detected and the scan blocks on it.
	PolicyNone Policy = iota
	// PolicyRetry retries the partition with backoff until RetryDeadline,
	// then fails with PartitionUnavailableError. Right for transient
	// faults (a stalled node, a healing partition).
	PolicyRetry
	// PolicyFallback serves the faulted partition's rows from the latest
	// committed snapshot's backup replica instead of the unreachable
	// primary, reporting the isolation downgrade in Result.Degraded.
	// Requires state replication; right when availability beats freshness.
	PolicyFallback
	// PolicyFailFast fails the whole query immediately with
	// PartitionUnavailableError. Right when the caller has its own
	// fallback (or must never serve stale data silently).
	PolicyFailFast
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyRetry:
		return "retry"
	case PolicyFallback:
		return "fallback"
	case PolicyFailFast:
		return "fail-fast"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ExecOpts tunes fault handling and planning for one query execution.
type ExecOpts struct {
	// Policy is the degradation policy (default PolicyNone).
	Policy Policy
	// PartitionTimeout bounds one partition access+scan attempt; a scan
	// exceeding it counts as a fault under the policy. Default 100ms
	// (only applied when Policy != PolicyNone).
	PartitionTimeout time.Duration
	// RetryDeadline is PolicyRetry's total per-partition budget across
	// attempts. Default 1s.
	RetryDeadline time.Duration
	// RetryBackoff is the pause between PolicyRetry attempts. Default 10ms.
	RetryBackoff time.Duration
	// DisablePushdown keeps predicates, column projection and LIMIT early
	// stop out of the partition scans: every row ships to the client and
	// filtering runs there. For benchmarking the pushdown win (and as an
	// escape hatch); results are identical either way.
	DisablePushdown bool
	// DisableIndexes keeps secondary indexes out of planning: every scan
	// takes the full-scan access path even when an index could serve its
	// pushed predicate. For benchmarking the index win A/B against the
	// same query (and as an escape hatch); results are identical either
	// way. Implied by DisablePushdown — index selection only considers
	// pushed conjuncts.
	DisableIndexes bool
}

func (o ExecOpts) withDefaults() ExecOpts {
	if o.PartitionTimeout <= 0 {
		o.PartitionTimeout = 100 * time.Millisecond
	}
	if o.RetryDeadline <= 0 {
		o.RetryDeadline = time.Second
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 10 * time.Millisecond
	}
	return o
}

// PartitionUnavailableError is the typed failure of a guarded query: one
// partition could not be read under the chosen policy.
type PartitionUnavailableError struct {
	Table     string
	Partition int
	Node      int
	Err       error
}

// Error implements error.
func (e *PartitionUnavailableError) Error() string {
	return fmt.Sprintf("sql: table %q partition %d (node %d) unavailable: %v",
		e.Table, e.Partition, e.Node, e.Err)
}

// Unwrap exposes the underlying fault (e.g. chaos.UnreachableError).
func (e *PartitionUnavailableError) Unwrap() error { return e.Err }

// errScanTimeout marks a partition attempt that exceeded PartitionTimeout.
var errScanTimeout = errors.New("partition scan timed out")

// Degradation reports that one partition of the result was served from a
// committed snapshot's backup replica instead of the requested table — an
// isolation downgrade (live rows elsewhere, snapshot rows here) the caller
// must be able to see.
type Degradation struct {
	// Table is the table name as written in the query.
	Table string
	// Partition is the partition served from the backup replica.
	Partition int
	// FallbackSSID is the committed snapshot id the rows came from.
	FallbackSSID int64
}

// String implements fmt.Stringer.
func (d Degradation) String() string {
	return fmt.Sprintf("%s[p%d]→snapshot %d", d.Table, d.Partition, d.FallbackSSID)
}

// degrades collects Degradation records across the scan goroutines.
type degrades struct {
	mu   sync.Mutex
	list []Degradation
}

func (d *degrades) add(g Degradation) {
	d.mu.Lock()
	d.list = append(d.list, g)
	d.mu.Unlock()
}

// guardPartition runs the pipe's fragment over partition p under the
// execution's policy. Predicate evaluation errors are query bugs, not
// faults: they return unwrapped and are never retried or degraded around.
func (ex *Executor) guardPartition(pi *pipe, p int) error {
	s := &pi.pp.srcs[pi.src]
	rc := pi.rc
	fail := func(err error) error {
		return &PartitionUnavailableError{
			Table: s.name, Partition: p, Node: s.ref.PartitionOwner(p), Err: err,
		}
	}
	switch rc.opts.Policy {
	case PolicyFailFast:
		evalErr, availErr := ex.attemptPartition(pi, p)
		if evalErr != nil {
			return evalErr
		}
		if availErr != nil {
			return fail(availErr)
		}
		return nil

	case PolicyRetry:
		deadline := time.Now().Add(rc.opts.RetryDeadline)
		for {
			evalErr, availErr := ex.attemptPartition(pi, p)
			if evalErr != nil {
				return evalErr
			}
			if availErr == nil {
				return nil
			}
			if time.Now().After(deadline) {
				return fail(fmt.Errorf("retry deadline %s exhausted: %w", rc.opts.RetryDeadline, availErr))
			}
			time.Sleep(rc.opts.RetryBackoff)
		}

	default: // PolicyFallback
		evalErr, availErr := ex.attemptPartition(pi, p)
		if evalErr != nil {
			return evalErr
		}
		if availErr == nil {
			return nil
		}
		// Degrade: serve the latest committed snapshot (or, for a snapshot
		// table, the queried id) from the partition's backup replica —
		// every table the fragment reads there, the probed side of a
		// co-partitioned join included. The fragment is the same fragment.
		reads := []int{pi.src}
		if pi.whole && pi.pp.coPart {
			reads = append(reads, 1-pi.src)
		}
		fb := make([]int64, len(pi.pp.srcs))
		for _, si := range reads {
			t := &pi.pp.srcs[si]
			fb[si] = t.ssid
			if !t.ref.IsSnapshot() {
				fb[si] = t.ref.LatestCommittedSSID()
			}
			if fb[si] == 0 {
				return fail(fmt.Errorf("no committed snapshot to fall back to: %w", availErr))
			}
		}
		if berr := s.ref.CheckBackupPartition(p); berr != nil {
			return fail(fmt.Errorf("backup replica also unavailable: %w", berr))
		}
		if err := pi.readPartition(p, fb); err != nil {
			return err
		}
		for _, si := range reads {
			rc.deg.add(Degradation{Table: pi.pp.srcs[si].name, Partition: p, FallbackSSID: fb[si]})
		}
		return nil
	}
}

// attemptPartition makes one timeout-bounded access check + fragment run
// over a partition. The attempt runs in a goroutine, on a pipe of its own,
// so a stalled access check cannot block the query past PartitionTimeout;
// an abandoned attempt finishes harmlessly against the immutable partition
// copy, writing only its own pipe, which nobody absorbs.
func (ex *Executor) attemptPartition(pi *pipe, p int) (evalErr, availErr error) {
	s := &pi.pp.srcs[pi.src]
	type res struct {
		att     *pipe
		evalErr error
		err     error
	}
	ch := make(chan res, 1)
	go func() {
		if err := s.ref.CheckPartition(p); err != nil {
			ch <- res{err: err}
			return
		}
		att := pi.fork()
		ch <- res{att: att, evalErr: att.readPartition(p, nil)}
	}()
	tm := time.NewTimer(pi.rc.opts.PartitionTimeout)
	defer tm.Stop()
	select {
	case r := <-ch:
		if r.att != nil && r.evalErr == nil {
			r.evalErr = pi.absorbAttempt(r.att)
		}
		return r.evalErr, r.err
	case <-tm.C:
		return nil, fmt.Errorf("%w after %s", errScanTimeout, pi.rc.opts.PartitionTimeout)
	}
}
