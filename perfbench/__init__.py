"""Benchmark for the sheafsys CLI; run it as ``python3 perfbench/run.py``."""
