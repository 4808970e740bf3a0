package sql

// Explain parses and compiles a query without executing it, returning a
// human-readable rendering of the plan tree the executor would run:
// which state tables it reads (live or snapshot, and at which resolved
// snapshot id), the predicate and column set pushed into each scan,
// partition pruning, the join strategy (co-partitioned vs global hash),
// the residual filter, and the post-processing stages. The snapshot ids
// shown are the ones the query would use if executed now. There is no
// separate explain path: this is the same compile step execution uses,
// and the same tree EXPLAIN ANALYZE (analyze.go) renders with per-stage
// measurements after running it.
func (ex *Executor) Explain(query string) (string, error) {
	stmt, err := Parse(query)
	if err != nil {
		return "", err
	}
	stmt = resolveOrderByAliases(stmt)
	pp, err := ex.compile(stmt, ExecOpts{}, true)
	if err != nil {
		return "", err
	}
	pp.release() // EXPLAIN reads no snapshot
	return pp.render(ex.clusterNodes(), false), nil
}
