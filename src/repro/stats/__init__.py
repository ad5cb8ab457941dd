"""Measurement: migration cost ledgers and system-wide reports."""
