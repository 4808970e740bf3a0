package dataflow

import (
	"runtime"
	"testing"
	"time"

	"squery/internal/core"
)

// TestRestoreErrorFailsRecovery: an instance whose snapshot cannot be
// decoded — here a JetBlob blob with a bad magic — fails the recovery
// with an error instead of panicking, and leaves no worker, drainer or
// source goroutine of the job running.
func TestRestoreErrorFailsRecovery(t *testing.T) {
	clu := testCluster()
	baseline := runtime.NumGoroutine()
	dag := NewDAG().
		AddVertex(&Vertex{Name: "src", Kind: KindSource, Parallelism: 1,
			NewSource: func(int, int) SourceInstance {
				return &gatedSource{release: make(chan struct{}), total: 100}
			}}).
		AddVertex(StatefulMapVertex("counter", 2, countFn)).
		AddVertex(LatencySinkVertexForTest("sink", 1)).
		Connect("src", "counter", EdgePartitioned).
		Connect("counter", "sink", EdgePartitioned)
	job, err := Run(dag, Config{Cluster: clu, State: core.Config{JetBlob: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	waitFor(t, func() bool { return job.SourceMeter().Count() == 50 }, "records before the gate")
	if err := job.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	clu.ClientView().Put("__jetsnap_counter", "inst-1@1", []byte("not a blob"))

	if _, err := job.InjectFailure(); err == nil {
		t.Fatal("recovery from an undecodable blob succeeded")
	}
	if job.Running() {
		t.Fatal("job reports running after a failed recovery")
	}
	job.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left after the failed recovery and Stop, %d before Run:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
