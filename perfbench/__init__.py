"""Benchmark of the CPRecycle reproduction; run ``python3 perfbench/run.py --help``."""
