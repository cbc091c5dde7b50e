// Package stash is a Go reproduction of "Stash: A comprehensive
// stall-centric characterization of public cloud VMs for distributed
// deep learning" (Sharma et al., IEEE ICDCS 2023).
//
// # The idea
//
// Stash answers "which cloud GPU instances should I pay for?" by
// measuring the four stalls of a distributed-training pipeline as
// black-box elapsed-time differences between carefully chosen runs:
//
//   - interconnect (I/C) stall: intra-machine gradient all-reduce over
//     PCIe/NVLink — all-GPU synthetic run minus single-GPU synthetic run;
//   - network (N/W) stall: inter-machine all-reduce over the VPC —
//     multi-node run minus single-node run;
//   - CPU (prep) stall: host-side decode/augment — warm-cache real run
//     minus synthetic run;
//   - disk (fetch) stall: reading mini-batches from storage — cold-cache
//     real run minus warm-cache run.
//
// The original tool drives PyTorch DDP on real AWS P2/P3 fleets. None
// of that exists here, so this module builds the entire stack in pure
// Go (stdlib only) and runs Stash against it as a black box. Because
// the substrate is a deterministic simulator on a virtual clock,
// results are bit-identical across runs, machines and parallelism
// settings — which is what lets the docs embed verified outputs and the
// paper's thousands of GPU-hours re-run in about a minute.
//
// # Layers
//
// From the ground up:
//
//   - internal/sim: deterministic discrete-event engine (the virtual
//     clock everything runs on);
//   - internal/simnet: max-min fair fluid-flow network model;
//   - internal/hw: GPU, link and storage datasheets;
//   - internal/topo: PCIe trees, NVLink crossbars, multi-node clusters;
//   - internal/cloud: the AWS P-family catalog (Table I) and its
//     provisioning quirks — the p3.8xlarge NVLink slice lottery, VPC
//     QoS jitter;
//   - internal/dnn: layer-level model zoo matching the paper's Table II
//     plus synthetic architectures; internal/workload: datasets and job
//     specs;
//   - internal/pipeline: disk/cache/CPU input pipeline;
//     internal/collective: ring all-reduce and parameter-server
//     gradient synchronization;
//   - internal/train: the DDP-style training loop with per-layer
//     compute and bucketed communication overlap;
//   - internal/core: the Stash profiler itself (the paper's
//     contribution) — steps 1-5, the stall arithmetic, the epoch
//     time/cost model, and a recommendation engine ranking purchasable
//     configurations under deadline/budget constraints. The profiler
//     memoizes scenarios behind a single-flight cache, so concurrent
//     and repeated measurements of the same scenario simulate once;
//   - internal/experiments: one runner per table/figure of the paper's
//     evaluation (25 artifacts), executing on a parallel scenario
//     scheduler that shares the profiler cache;
//   - internal/report: plain-text and JSON table rendering;
//     internal/trace: the per-worker execution timeline Stash
//     deliberately never looks at, exportable to chrome://tracing.
//
// # Entry points
//
//   - cmd/stash: profile one workload or rank configurations
//     (-recommend);
//   - cmd/characterize: regenerate any or all paper artifacts;
//   - cmd/stashd: the same capabilities as a long-running HTTP service
//     with a versioned JSON API — synchronous /v1 calls plus async
//     /v2 jobs with SSE progress, a live-job quota and one FIFO queue
//     (internal/api; contract in docs/API.md, operator guide in
//     docs/OPERATIONS.md);
//   - cmd/microbench, cmd/bwtest: Fig 16 and Fig 7 probes;
//   - examples/: runnable walkthroughs of the public API.
//
// The benchmarks in bench_test.go regenerate each paper artifact; see
// EXPERIMENTS.md for measured-vs-paper results and DESIGN.md for the
// real-world-to-simulation substitution table.
package stash
