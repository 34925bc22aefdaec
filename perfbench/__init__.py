"""Seeded, layered benchmark for the rototrap library (see run.py)."""
