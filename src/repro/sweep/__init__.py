"""Parallel sweep runner with content-addressed result caching.

The paper's evaluation is a grid of scheme x workload x parameter
experiments; this package runs such grids over a process pool, caches
every deterministic result on disk keyed by (config, workload spec,
source fingerprint), and reproduces the figure reports.  See
``repro sweep --help`` for the CLI.
"""

from .cache import (
    ResultCache,
    SourceFingerprint,
    compute_source_fingerprint,
    default_cache_dir,
)
from .grids import figure_grids, run_figure_suite
from .runner import JobResult, ProgressPrinter, ProgressTracker, run_jobs
from .spec import WORKLOAD_REGISTRY, Job, WorkloadSpec, job_key

__all__ = [
    "Job",
    "JobResult",
    "ProgressPrinter",
    "ProgressTracker",
    "ResultCache",
    "SourceFingerprint",
    "WORKLOAD_REGISTRY",
    "WorkloadSpec",
    "compute_source_fingerprint",
    "default_cache_dir",
    "figure_grids",
    "job_key",
    "run_figure_suite",
    "run_jobs",
]
