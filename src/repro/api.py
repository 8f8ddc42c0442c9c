"""The typed options facade: ``BuildOptions`` and ``SpecOptions``.

The growing keyword lists on :func:`~repro.pipeline.build.build_dir` and
:func:`~repro.genext.engine.specialise` (jobs, cache_dir, policy,
strategy, timeout, ...) are replaced by two frozen, keyword-only
dataclasses.  One object names a complete configuration, can be stored,
compared, logged, and passed through layers without each layer
re-declaring ten keywords:

.. code-block:: python

    from repro.api import BuildOptions, SpecOptions

    result = repro.build_dir(src, BuildOptions(jobs=4, keep_going=True))
    spec = repro.specialise(gp, "power", {"n": 3}, SpecOptions(strategy="dfs"))

An entry point accepts only an options object: a keyword such as
``build_dir(src, jobs=4)`` is a plain :class:`TypeError`.
"""

import sys
from dataclasses import dataclass, field, replace
from typing import Any, Callable, FrozenSet, Optional

from repro.pipeline.faults import FaultPolicy
from repro.pipeline.report import ModuleRebuild, RebuildReport

__all__ = [
    "BuildOptions",
    "SpecOptions",
    "ModuleRebuild",
    "RebuildReport",
    "build_options",
    "spec_options",
]

# Frozen everywhere; keyword-only where the interpreter supports it
# (3.10+).  On 3.9 the fields are positional-capable but the documented
# API is keyword construction.
_DC_KW = {"frozen": True}
if sys.version_info >= (3, 10):
    _DC_KW["kw_only"] = True


@dataclass(**_DC_KW)
class BuildOptions:
    """Everything one build run can be told.

    ``policy`` wins over the ``keep_going``/``timeout``/``retries``
    convenience fields when both are given; :meth:`fault_policy`
    resolves them.  ``trace_path`` / ``metrics_path`` are output sinks:
    when set, :func:`~repro.pipeline.build.build_dir` enables tracing
    and writes the Chrome trace / metrics snapshot there even if the
    build fails.
    """

    jobs: int = 1
    cache_dir: Optional[str] = None
    force_residual: FrozenSet[str] = frozenset()
    iface_dir: Optional[str] = None
    out_dir: Optional[str] = None
    keep_going: bool = False
    timeout: Optional[float] = None
    retries: int = 0
    policy: Optional[FaultPolicy] = None
    trace_path: Optional[str] = None
    metrics_path: Optional[str] = None

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1, got %d" % self.jobs)
        if not isinstance(self.force_residual, frozenset):
            object.__setattr__(
                self, "force_residual", frozenset(self.force_residual or ())
            )

    def fault_policy(self):
        """The effective :class:`~repro.pipeline.faults.FaultPolicy`."""
        if self.policy is not None:
            return self.policy
        return FaultPolicy(
            timeout=self.timeout,
            retries=self.retries,
            keep_going=self.keep_going,
        )

    def replace(self, **changes):
        """A copy with ``changes`` applied (dataclasses.replace)."""
        return replace(self, **changes)


@dataclass(**_DC_KW)
class SpecOptions:
    """Everything one specialisation run can be told.

    ``fuel`` bounds the *residual program's* interpretation steps when
    the result is run (:meth:`SpecialisationResult.run`); ``timeout``
    bounds the specialisation run's wall clock; ``max_versions`` bounds
    its polyvariance.  ``force_residual`` is consumed by the analysis
    front ends (:func:`repro.compile_genexts`,
    :func:`repro.specialiser.mix_specialise`), as is the analysis
    strategy ``unfolding`` (``"lub"``/``"size-change"``) — see
    ``docs/analyses.md``.

    ``cache_dir`` enables the persistent residual cache
    (:mod:`repro.speccache`): a repeated request is answered from disk
    without running the specialiser at all.  ``None`` (the default)
    disables it; runs with a ``sink`` are never cached (the caller
    wants the definitions streamed).  See ``docs/performance.md``.

    ``tier_policy`` (a :class:`repro.backend.tiers.TierPolicy`) sets
    the execution ladder's promotion thresholds for callers that run
    results through :class:`~repro.backend.tiers.TierLadder` — an
    execution knob like ``fuel``, so it never enters the residual
    cache key.  ``None`` leaves ladder users on the default policy and
    non-ladder paths untouched.
    """

    strategy: str = "bfs"
    fuel: int = 1_000_000
    timeout: Optional[float] = None
    force_residual: FrozenSet[str] = frozenset()
    sink: Optional[Callable[[Any, Any], None]] = field(default=None)
    monolithic: bool = False
    max_versions: Optional[int] = 10_000
    cache_dir: Optional[str] = None
    tier_policy: Optional[Any] = None
    # Analysis strategy (docs/analyses.md): ``unfolding="size-change"``
    # unfolds provably decreasing recursion instead of residualising
    # it.  The default reproduces the paper's behaviour exactly.
    unfolding: str = "lub"

    def __post_init__(self):
        if self.strategy not in ("bfs", "dfs"):
            raise ValueError(
                "strategy must be 'bfs' or 'dfs', got %r" % (self.strategy,)
            )
        if self.unfolding not in ("lub", "size-change"):
            raise ValueError(
                "unfolding must be 'lub' or 'size-change', got %r"
                % (self.unfolding,)
            )
        if not isinstance(self.force_residual, frozenset):
            object.__setattr__(
                self, "force_residual", frozenset(self.force_residual or ())
            )
        if self.tier_policy is not None:
            # Imported lazily: repro.backend pulls in the genext layer,
            # which this options facade must stay below.
            from repro.backend.tiers import TierPolicy

            if not isinstance(self.tier_policy, TierPolicy):
                raise TypeError(
                    "tier_policy must be a repro.backend.tiers.TierPolicy, "
                    "got %r" % (type(self.tier_policy).__name__,)
                )

    def replace(self, **changes):
        return replace(self, **changes)


# ---------------------------------------------------------------------------
# Resolving an entry point's ``options`` argument.
# ---------------------------------------------------------------------------


def _coerce(api_name, options, cls):
    if options is None:
        return cls()
    if not isinstance(options, cls):
        raise TypeError(
            "%s() options must be a %s, got %r"
            % (api_name, cls.__name__, type(options).__name__)
        )
    return options


def build_options(api_name, options):
    """``options`` as a :class:`BuildOptions` (``None`` = the defaults)."""
    return _coerce(api_name, options, BuildOptions)


def spec_options(api_name, options):
    """``options`` as a :class:`SpecOptions` (``None`` = the defaults)."""
    return _coerce(api_name, options, SpecOptions)
