"""Runtime knobs shared by the CLI, the scans, and the self-test harness."""
from __future__ import annotations

import os
from dataclasses import dataclass

CACHE_ENV_VAR = "ALTRACE_CACHE"
DEFAULT_SIEVE_BOUND = 4_000_000


@dataclass
class Config:
    """Execution settings.

    sieve_bound  -- largest |disc| covered by the bulk class-number table
    cache_path   -- optional file for persisting that table between runs;
                    falls back to the ALTRACE_CACHE environment variable
    workers      -- threads used by the scan loops (1 = serial)
    output_dir   -- where scan artifacts (csv/svg) are written
    """

    sieve_bound: int = DEFAULT_SIEVE_BOUND
    cache_path: str | None = None
    workers: int = 1
    output_dir: str = "."

    def __post_init__(self):
        if self.sieve_bound < 4:
            raise ValueError("sieve_bound must be at least 4")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.cache_path is None:
            self.cache_path = os.environ.get(CACHE_ENV_VAR) or None
