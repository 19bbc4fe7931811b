"""Shared test settings: one hypothesis profile for every property test,
so runs are reproducible and no example database is written."""

from hypothesis import settings

settings.register_profile("poolseq", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("poolseq")
