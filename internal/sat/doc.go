// Package sat implements a complete CDCL (conflict-driven clause learning)
// SAT solver used as the decision engine behind the SCADA resiliency
// verifier.
//
// The solver implements the standard modern architecture: two-watched-literal
// unit propagation, first-UIP conflict analysis with recursive
// (MiniSat-style) learned-clause minimization, exponential VSIDS
// variable activities with a binary heap, phase saving, Luby-sequence
// restarts, LBD-based (glue) learned-clause database reduction, and
// incremental solving under assumptions.
//
// The paper this repository reproduces solves its model with Z3; every
// constraint in that model is propositional structure plus cardinality
// sums, so a SAT back-end (fed by package logic's Tseitin and
// sequential-counter encodings, one-sided where a cardinality atom
// occurs only positively) decides exactly the same fragment.
//
// # Clause store
//
// Clauses live in one flat, pointer-free arena of uint32 words and are
// named by their 32-bit offset (a cref); watchers, reasons and the
// clause lists hold crefs, so the garbage collector never scans the
// clause database and propagation stores run no write barrier. A
// clause is one header word and its literals; only learned clauses
// carry LBD and activity, in three words after their literals. The
// assignment is indexed by literal, both polarities written, so
// reading a literal's value is one load.
// Deleted clauses leave waste that is compacted away, with every cref
// relocated in place, once it passes a quarter of the arena. The watch
// lists share one pointer-free pool of watchers, each literal naming
// its list by offset, length and room (DESIGN.md §11, "The watcher
// pool"). The store is invisible to the search: the same trail,
// conflicts, learned clauses, models and proofs as a pointer-per-clause
// layout (DESIGN.md §11, "The clause store").
//
// # Preprocessing and snapshots
//
// Simplify runs a SatELite-style preprocessing pass in place — unit
// propagation to fixpoint, failed-literal probing, subsumption and
// self-subsuming resolution, and bounded variable elimination with
// model reconstruction. Variables the caller will still assume, block
// on, or read back must be protected with Freeze before the pass, or
// elimination may resolve them away. Clone deep-copies a solver —
// clause database, learned clauses, activities, saved phases, and the
// elimination record — into an independent instance; the encoding
// cache in package core pairs the two, simplifying a structural
// snapshot once and handing every subsequent query a private clone,
// taken with CloneWithRoom (through logic.Encoder.CloneFor) so the
// query's failure budget fits in it without reallocating.
//
// # One search path
//
// Every verdict comes from one serial CDCL search on one solver. Racing
// diversified clones with learned-clause sharing, and strengthening
// learned clauses between restarts, were both tried and removed:
// neither beat the plain search on a recorded benchmark (DESIGN.md §12,
// EXPERIMENTS.md §P3).
//
// # Instrumentation and control
//
// Stats exposes per-solver counters — decisions, conflicts,
// propagations, learned clauses, restarts, plus the number of Solve
// calls and their cumulative wall time. Counters accumulate across
// incremental Solve calls; the verifier attributes effort to individual
// queries by giving each query a solver of its own. Two hooks bound a solve: SetConflictBudget limits a
// single Solve call to a number of conflicts, and SetInterrupt installs
// a cooperative cancellation callback polled every few hundred search
// steps — both make the solver return Unsolved rather than block
// indefinitely, which is what makes campaign cancellation (core.Runner)
// responsive.
//
// # Concurrency
//
// A Solver is single-goroutine: it owns mutable trail, watch and
// activity state and performs no internal locking. Concurrent
// verification therefore gives every goroutine its own solver (the
// ownership rule enforced throughout package core); only SetInterrupt's
// callback is invoked on the solving goroutine but may read state
// written by others, which is how cancellation crosses the boundary.
//
// The zero value of Solver is not usable; construct with New.
package sat
