"""The structured rebuild report (``repro.api.RebuildReport``).

Defined here — below :mod:`repro.api` in the import graph — so the build
engine can construct reports without a circular import; the public home
is ``repro.api``, which re-exports both classes.
"""

from dataclasses import dataclass
from typing import Tuple

__all__ = ["ModuleRebuild", "RebuildReport"]


@dataclass(frozen=True)
class ModuleRebuild:
    """What one build did for one module.

    ``action`` is one of ``"cached"`` (module key hit — nothing ran),
    ``"analysed"`` (whole-module analyse+cogen), ``"failed"`` or
    ``"skipped"`` (inside a failed cone).  A cached module lists every
    definition as ``reused``; an analysed one lists them as
    ``re_derived``, and ``cut_off`` ⊆ ``re_derived`` are those whose
    scheme digest matches the module's previous build — the definitions
    at which invalidation stopped."""

    module: str
    action: str
    reused: Tuple[str, ...] = ()
    re_derived: Tuple[str, ...] = ()
    cut_off: Tuple[str, ...] = ()

    def as_dict(self):
        return {
            "module": self.module,
            "action": self.action,
            "reused": list(self.reused),
            "re_derived": list(self.re_derived),
            "cut_off": list(self.cut_off),
        }


@dataclass
class RebuildReport:
    """Per-module rebuild accounting, returned on every
    :class:`~repro.pipeline.build.BuildResult` and surfaced by
    ``mspec build --stats`` / ``--json``."""

    modules: Tuple[ModuleRebuild, ...] = ()

    def __iter__(self):
        return iter(self.modules)

    def by_action(self, action):
        return [m for m in self.modules if m.action == action]

    @property
    def defs_reused(self):
        return sum(len(m.reused) for m in self.modules)

    @property
    def defs_re_derived(self):
        return sum(len(m.re_derived) for m in self.modules)

    @property
    def defs_cut_off(self):
        return sum(len(m.cut_off) for m in self.modules)

    def as_dict(self):
        return {
            "modules": [m.as_dict() for m in self.modules],
            "totals": {
                "cached": len(self.by_action("cached")),
                "analysed": len(self.by_action("analysed")),
                "failed": len(self.by_action("failed")),
                "skipped": len(self.by_action("skipped")),
                "defs_reused": self.defs_reused,
                "defs_re_derived": self.defs_re_derived,
                "defs_cut_off": self.defs_cut_off,
            },
        }

    def render(self):
        """A short human-readable summary (``mspec build --stats``)."""
        return (
            "rebuild: %(cached)d cached, %(analysed)d analysed "
            "(defs: %(defs_reused)d reused / %(defs_re_derived)d re-derived "
            "/ %(defs_cut_off)d cut off)" % self.as_dict()["totals"]
        )
