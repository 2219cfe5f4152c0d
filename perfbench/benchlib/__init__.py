"""Helpers of the end-to-end benchmark in ``perfbench/run.py``."""
