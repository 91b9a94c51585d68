"""Simulation lab for insider trading under deterministic look-ahead schedules."""

__version__ = "0.1.0"
