// Package repro is a software reproduction of "PASTA on Edge:
// Cryptoprocessor for Hybrid Homomorphic Encryption" (DATE 2025): the
// PASTA-3/-4 HHE-enabling stream cipher, a cycle-accurate model of the
// paper's hardware accelerator with a calibrated area model, a RISC-V
// SoC co-simulation, an RLWE/BFV substrate for the FHE-client baseline
// and the server-side homomorphic decryption, and a benchmark harness
// that regenerates every table and figure of the paper's evaluation.
//
// See README.md for the layout, DESIGN.md for the system inventory and
// substitutions, and EXPERIMENTS.md for paper-vs-measured results.
// Benchmarks in bench_test.go regenerate the evaluation numbers; the
// binaries under cmd/ print the full tables.
//
// The software cipher is itself tuned as a faithful image of the
// paper's datapath: one layer kernel (pasta.Kernel) accumulates each
// matrix row's products unreduced and reduces once per row, mirroring
// the cryptoprocessor's multiplier bank → adder tree → single reduction
// unit schedule (Sec. III-C), with a division-free limb fold for the
// Fermat prime 2^16 + 1. The accelerator model's event engine runs on
// the same kernel. The pasta package fans CTR-independent blocks out
// across cores with pooled, allocation-free workspaces. The sequential
// path and the materialized matrices are kept as reference oracles and
// are tested bit-identical to it.
package repro
