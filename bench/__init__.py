"""ielab benchmark: workloads, tracing, op micro-benchmarks and the runner."""
