"""The benchmark spine: one harness, six workloads, traced from outside."""
