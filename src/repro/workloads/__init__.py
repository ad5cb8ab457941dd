"""Synthetic workloads for examples, tests, and benchmarks."""
