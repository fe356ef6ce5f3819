"""Harness of the silt benchmark; see ../run.py."""
