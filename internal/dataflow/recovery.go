package dataflow

import (
	"fmt"

	"squery/internal/core"
	"squery/internal/snapshot"
)

// InjectFailure crashes the running job — all workers stop where they
// stand, in-flight records and uncommitted state are lost — and then
// recovers it: every stateful instance restores from the latest committed
// snapshot, sources rewind to the offsets captured by that snapshot, and
// processing resumes. This is the paper's recovery path (§IV) and the
// mechanism behind the dirty-read demonstration of Figure 5: live state
// written after the last checkpoint vanishes, so a live query issued
// before the failure may have observed state that "never happened".
//
// It returns the snapshot id recovered to, or 0 when no snapshot had
// committed yet (the job restarts from scratch). A stateful instance that
// cannot restore (an undecodable blob, say) fails the recovery: the error
// is returned and the job stays stopped, with no worker running.
func (j *Job) InjectFailure() (int64, error) {
	j.mu.Lock()
	if !j.running {
		j.mu.Unlock()
		return 0, fmt.Errorf("dataflow: job is not running")
	}
	j.running = false
	close(j.killCh)
	j.stopCoordinatorLocked()
	j.mu.Unlock()

	// Wait for the crash to complete: all workers, drainers and the
	// coordinator gone — a drainer mid-write must not race the restore
	// below. An in-flight checkpoint is aborted by the coordinator when
	// it observes the closed kill channel.
	j.wg.Wait()
	j.drainWg.Wait()
	j.waitCoordinator()
	if in := j.mgr.Registry().InProgress(); in != 0 {
		j.mgr.Abort(in)
		j.ckptAborts.Add(1)
	}

	// With active standby replicas (§VII, read committed) the failure is
	// masked by promoting the replicas: no rollback, sources resume from
	// their live offsets.
	if j.cfg.State.ActiveStandby {
		return j.mgr.Registry().LatestCommitted(), j.start(0, true)
	}

	restoreSSID := j.mgr.Registry().LatestCommitted()
	if restoreSSID == snapshot.NoSnapshot {
		// Nothing ever committed: clear any live state the crashed run
		// wrote and start over.
		j.clearLiveState()
		return 0, j.start(0, false)
	}
	return restoreSSID, j.start(restoreSSID, false)
}

// crashAndRecover realizes an injected coordinator crash between phase 1
// and commit of a checkpoint (chaos CrashPreCommit): the named cluster
// node fails with the job, then the normal crash-recovery path runs. The
// in-flight snapshot id is deliberately left open — InjectFailure's
// cleanup must abort it, proving a prepared-but-uncommitted checkpoint is
// never published. Called from the coordinator goroutine via `go` so the
// recovery's coordinator-wait does not deadlock on its own caller.
func (j *Job) crashAndRecover(node int) {
	if node >= 0 && node < j.clu.Nodes() && !j.clu.Failed(node) && len(j.clu.LiveNodes()) > 1 {
		// The error return (racing another kill for the last live node)
		// just means the node survives; the recovery below still runs.
		_ = j.clu.Fail(node)
	}
	// The error path only fires when the job already stopped for another
	// reason; the crash is then moot.
	_, _ = j.InjectFailure()
}

// clearLiveState wipes the live maps of all stateful operators; used when
// recovering a job that never committed a snapshot. ClearMap, not
// DropMap: secondary indexes created on the tables are schema and must
// survive the restart — only the data is rolled back.
func (j *Job) clearLiveState() {
	for _, meta := range j.mgr.Operators() {
		if meta.Config.Live {
			j.clu.Store().ClearMap(core.LiveMapName(meta.Name))
		}
	}
}

// clearState wipes every map a fresh run's stateful operators own — live,
// snapshot, standby and blob — so a job resubmitted under a stopped job's
// operator names neither computes on nor serves the stopped job's state:
// its snapshot ids restart at 1 and would otherwise resolve the old
// versions. ClearMap keeps the tables' indexes, as in clearLiveState.
func (j *Job) clearState() {
	store := j.clu.Store()
	for _, op := range j.statefulOps {
		for _, name := range core.StateMapNames(op) {
			store.ClearMap(name)
		}
	}
}
