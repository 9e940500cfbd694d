"""Benchmark of the totime engine; entry point: perfbench/run.py."""
