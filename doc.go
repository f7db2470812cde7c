// Package zeroshotdb is a from-scratch Go reproduction of "One Model to
// Rule them All: Towards Zero-Shot Learning for Databases" (Hilprecht and
// Binnig, CIDR 2022).
//
// The repository implements the paper's zero-shot cost model — a graph
// neural network over a transferable query-plan encoding, trained on query
// executions from many databases and able to predict query runtimes on
// databases it has never seen — together with every substrate the paper's
// prototype depends on: a synthetic database generator, an in-memory
// columnar execution engine, a cost-based query optimizer with what-if
// index support, a statistics subsystem, a hardware/runtime simulator, a
// tape-based autodiff library, and the workload-driven baselines (MSCN,
// E2E, Scaled Optimizer Cost) it is evaluated against.
//
// Entry points:
//
//   - internal/costmodel — the unified Estimator API: one contract
//     (Fit / Predict / PredictBatch / Save) over the zero-shot model and
//     every baseline, and a self-describing model registry. Batched
//     inference is fused where the model allows it: the zero-shot
//     adapter packs the whole batch into one encoding.BatchGraph and
//     runs a single tape-free forward pass on pooled nn buffers
//     (bitwise-equal to per-item Predict), while the baselines fall
//     back to a worker-pool fan-out — see DESIGN.md's "The inference
//     engine"
//   - internal/zeroshot — the zero-shot cost model (train / predict /
//     fine-tune / save / load). Training runs a data-parallel engine:
//     minibatches shard across the shared nn worker pool with pooled
//     tapes and a deterministic gradient reduce, so any worker count
//     trains to bitwise-identical weights — see DESIGN.md's "The
//     training engine"
//   - internal/adapt — online adaptation: serve-time feedback joined
//     against retained plans, q-error drift detection, and a background
//     worker that fine-tunes a clone of the serving model and hot-swaps
//     it when a shadow evaluation improves (the few-shot mode, closed
//     into a serving loop)
//   - internal/cluster — scale-out: a consistent-hash router (virtual
//     nodes, health-checked failover, bounded fan-out aggregation) over
//     replica backends, in-process or remote HTTP, plus a deterministic
//     fault-injection simulation harness (internal/cluster/sim)
//   - internal/bundle — fleet-wide model distribution: a versioned,
//     checksummed bundle format over the self-describing model files, a
//     publisher hooked into the adaptation loop's accept path, and a
//     per-replica poll/verify/activate distributor with durable
//     rollback — see DESIGN.md's "Model distribution"
//   - internal/whatif — the Section 4.1 what-if index advisor as a
//     subsystem: candidate enumeration and a sweep that overlays
//     hypothetical indexes in the planner only and prices every (variant
//     × query) pair in one fused batch — served as POST /v1/whatif and
//     `zsdb advise` (see DESIGN.md's "The what-if sweep layer")
//   - internal/experiments — regenerates every table and figure of the
//     paper's evaluation by iterating over registry estimators
//   - cmd/zsdb — the experiment driver CLI and the `zsdb serve` HTTP
//     prediction service (POST /v1/predict, /v1/predict_batch,
//     /v1/whatif, the -adapt feedback loop via /v1/feedback, and
//     -replicas N for the single-binary cluster), with `zsdb route` as
//     the multi-process routing tier over remote serve nodes and
//     `zsdb bundle` for offline model-bundle store operations; all
//     three topologies share one HTTP shim, and its wire structs and
//     status table live in internal/cluster (see DESIGN.md's "Service
//     surface")
//   - examples/ — runnable walkthroughs (quickstart, index advisor,
//     few-shot adaptation, learned join ordering)
//
// See DESIGN.md for the system inventory and the per-experiment index, and
// EXPERIMENTS.md for paper-vs-measured results.
package zeroshotdb
