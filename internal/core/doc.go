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
//   - AssuredDelivery_I / SecuredDelivery_I — deliveryNet: an IED's
//     measurements reach the MTU over at least one path whose devices
//     and links are up, protocols pair hop by hop, and (for the secured
//     variant) every hop is authenticated and integrity-protected under
//     the secpolicy rules. No path is enumerated: one reach net, shared
//     by all IEDs, gives each forwarder a Reach term with Horn "if"
//     clauses along every hop into it, and each IED a Del term defined
//     exactly over its uplinks. A model's Reach terms can only lie above
//     true reachability, and every violation is antitone in delivery,
//     so verdicts are exact either way (DESIGN.md §5, "Delivery").
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
//     logic.Encoder.Implying as a one-sided totalizer.
//
// # Pipeline
//
// Every query takes one path. The structure — configuration
// constraints, delivery definitions and the negated property — is
// Tseitin-encoded (package logic) once per configuration and snapshot
// key (property, KL and, for bad-data detectability alone, R) into a
// snapshot of the CDCL solver (package sat), held in an
// EncodingCache and, under WithPresimplify, simplified with the decision
// variables frozen. A Verify call clones that snapshot, puts the
// failure budget on the private clone, solves, and decodes a model into
// a ThreatVector, greedily minimized against the direct evaluator
// (eval.go), so every reported vector is a minimal witness.
// EnumerateThreats extends the pipeline with blocking clauses on its
// clone to walk the whole antichain of minimal threat vectors.
//
// # Scaling the analysis
//
//   - The encoding cache (WithEncodingCache / NewEncodingCache) builds
//     each snapshot once and hands every query a private sat.Clone;
//     concurrent identical requests singleflight into one
//     encode+simplify. An analyzer given no cache gets a private one,
//     so its own queries still share their snapshots.
//   - Sweep and MaxResiliency / MaxResiliencyCombined ask a family of
//     budgets over one structure as Verify calls: each budget solves on
//     a pristine clone, and the boundary search gallops up from k = 0.
//   - Runner fans independent queries out over a pool of worker
//     goroutines under the solver ownership rule — one Analyzer, and
//     therefore one solver, per goroutine; only the read-only Config
//     and the cache are shared — with deterministic, input-ordered
//     results and context-based cancellation.
//
// Every Result carries the per-solve sat.Stats (decisions, conflicts,
// propagations, learned clauses, solve time) of the query that produced
// it.
package core
