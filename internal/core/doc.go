// Package core implements the paper's contribution: the SCADA Analyzer.
// It formally models SCADA configurations (device availability, link
// status, reachability, protocol and crypto pairing), the observability
// requirement of state estimation, secured delivery, and bad-data
// detectability, and verifies k- and (k1,k2)-resilient variants of those
// properties as threat queries: a satisfiable query yields a threat
// vector (a set of device failures violating the property), an
// unsatisfiable one certifies the resiliency specification.
//
// # Mapping to the paper
//
// The package encodes the constructs of Sections III-C through III-F:
//
//   - AssuredDelivery_I / SecuredDelivery_I — deliveryFormula: an IED's
//     measurements reach the MTU over at least one path whose devices
//     and links are up, protocols pair hop by hop, and (for the secured
//     variant) every hop is authenticated and integrity-protected under
//     the secpolicy rules.
//   - Observability — violationFormula(Observability): state estimation
//     stays solvable, i.e. the delivered measurements span all states
//     (powergrid's StateSet_Z cover); the query searches a failure set
//     within the budget under which some state is unmeasured.
//   - SecuredObservability — the same cover over SecuredDelivery_I only.
//   - r-BadDataDetectability — violationFormula(BadDataDetectability):
//     every state must remain observable after removing any r delivered
//     measurements, the paper's redundancy condition for detecting up
//     to r corrupted measurements.
//   - k / (k1,k2) resiliency — budgetFormula: a cardinality bound on
//     failed devices, either one combined budget k or separate IED (k1)
//     and RTU (k2) budgets. Like every cardinality atom the analyzer
//     asserts or assumes, it occurs only positively and is encoded by
//     logic.Encoder.Implying as a one-sided sequential counter.
//
// # Pipeline
//
// A Verify call runs query → encode → solve → minimize: the negated
// property and the budget are Tseitin-encoded (package logic) into the
// CDCL solver (package sat); a model is decoded into a ThreatVector and
// greedily minimized against the direct evaluator (eval.go), so every
// reported vector is a minimal witness. EnumerateThreats extends the
// pipeline with blocking clauses to walk the whole antichain of minimal
// threat vectors.
//
// # Scaling the analysis
//
// Two engines accelerate campaigns over many queries:
//
//   - Sweep reuses one structural encoding across a failure-budget
//     sweep, adding only the per-k one-sided counter and passing the
//     budget as an assumption, so learned clauses and saved phases
//     carry over (the fast path behind MaxResiliency and
//     MaxResiliencyCombined).
//   - Runner fans independent queries out over a pool of worker
//     goroutines under the solver ownership rule — one Analyzer, and
//     therefore one solver, per goroutine; only the read-only Config is
//     shared — with deterministic, input-ordered results and
//     context-based cancellation.
//   - The encoding cache (WithEncodingCache / NewEncodingCache) builds
//     each (structure, property) snapshot once, simplifies it with the
//     decision variables frozen, and hands every query a private
//     sat.Clone — concurrent identical requests singleflight into one
//     encode+simplify. With the cache armed, MaxResiliencyCombined
//     gallops up from k = 0 probing pristine clones instead of driving
//     one accumulating incremental sweep solver.
//
// Every Result carries the per-solve sat.Stats (decisions, conflicts,
// propagations, learned clauses, solve time) of the query that produced
// it.
package core
