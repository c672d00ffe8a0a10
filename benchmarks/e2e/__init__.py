"""End-to-end federated-job benchmark: four workloads, job wall-clock end
to end, every layer timed from outside.  See README.md."""
