"""BENCH_E2E — wall-clock feature-ladder benchmark with outside-in
per-layer attribution.  See ``README.md`` beside this file; run with
``PYTHONPATH=src python -m benchmarks.e2e``.
"""
