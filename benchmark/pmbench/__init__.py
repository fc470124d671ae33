"""Benchmark harness for pmrope: workloads, correctness checks, tracing."""
