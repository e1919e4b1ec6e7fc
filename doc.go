// Package repro is AutoLearn-Go, a from-scratch Go reproduction of
// "AutoLearn: Learning in the Edge to Cloud Continuum" (SC-W 2023): the
// DonkeyCar-style driving stack (simulator, tub data format, six autopilot
// models on a from-scratch neural-network library, 20 Hz drive loop),
// the Chameleon/CHI@Edge testbed substrates (GPU inventory, advance
// reservations, BYOD edge devices, object store, network emulation), the
// Trovi artifact hub, and the orchestration that ties them into the
// paper's collect → clean → train → evaluate learning loop.
//
// The library lives under internal/; see README.md for the package map,
// DESIGN.md for the system inventory, and bench_test.go in this directory
// for the per-figure/per-experiment reproduction harness.
package repro
