"""End-to-end benchmark of the reproduction; entry point: ``perfbench/run.py``."""
