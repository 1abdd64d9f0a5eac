// Package smoke holds the end-to-end check plumbing shared by this
// package's served tests, the orderly model checker's real-system
// drivers and the benchmark harness: in-process durable gateway
// bring-up and crash/recovery, the acked-write ledger with its
// read-back verification, and the failover-timeline matcher over the
// fleet event journal.
//
// Its tests are the served checks: a durable gateway crashed and
// recovered twice with every acked write read back, and a live
// telemetry endpoint scraped for the core metric families and a nested
// ocall trace. A check that exists once is a check whose strictness
// cannot drift.
package smoke
