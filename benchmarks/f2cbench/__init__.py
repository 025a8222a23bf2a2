"""f2cbench — the repository's benchmark for the F2C pipeline.

Five workloads, end-to-end metrics gated by ``BENCHMARK.json`` at the repo
root, per-layer metrics from a traced run.  See ``README.md`` beside this
file; ``run.py`` is the one command.
"""
