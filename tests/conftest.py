"""Shared test configuration.

Property tests draw their examples from a seed derived from each test,
so every run of the suite checks the same examples.
"""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")
