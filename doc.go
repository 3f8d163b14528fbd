// Package rstore is the module root of an from-scratch reproduction of
// "RStore: A Direct-Access DRAM-based Data Store" (Trivedi et al., IEEE
// ICDCS 2015).
//
// The system lives under internal/: a software RDMA verbs layer over a
// simulated fabric (internal/rdma, internal/simnet), the RStore master,
// memory servers, and client library (internal/master, internal/memserver,
// internal/client), the assembled cluster plus public API facade
// (internal/core), the paper's two application studies (internal/graph,
// internal/kvsort), their comparators (internal/baseline/...), and the
// evaluation harness (internal/bench).
//
// Start with README.md for a tour, DESIGN.md for the architecture and
// per-experiment index, and EXPERIMENTS.md for the paper-versus-measured
// record. cmd/rstore-bench regenerates every table and figure:
//
//	go run ./cmd/rstore-bench -exp all
package rstore
