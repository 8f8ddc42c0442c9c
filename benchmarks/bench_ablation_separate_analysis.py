"""Ablation (Sec. 4.1 / Sec. 9): separate analysis with interface files.

"Once a module is added to a software system, it can be analysed and
tailored for specialisation once and for all.  For the analysis we only
require that all imported modules have been analysed."

We build an import chain of 24 modules with the build engine
(publishing each ``*.bti`` next to its source, as ``mspec analyze``
does) and compare the cost of refreshing the analysis after various
events, under content-digest invalidation:

* **whole-program** — re-analyse everything (a specialiser without
  interface files);
* **touch all** — ``touch`` every source; digests are unchanged, so
  nothing is re-analysed (a timestamp scheme would redo the world);
* **leaf edit** — change the last module; exactly one re-analysis;
* **root edit, comment** — change the first module without changing its
  interface; the root is re-analysed whole and early cutoff stops the
  cone there;
* **root edit, new export** — change the first module's *interface*;
  the direct importer references none of the new definitions, so its
  definition-level key is unchanged and the cone stops at the root.
"""

import itertools
import os
import time

from repro.api import BuildOptions
from repro.bench.generators import layered_program
from repro.bt.analysis import analyse_program
from repro.modsys.program import load_program_dir
from repro.pipeline import build_dir

N_MODULES = 24
DEFS = 4


def _write_sources(tmp):
    sources = layered_program(N_MODULES, DEFS, seed=2)
    for name, text in sources.items():
        with open(os.path.join(tmp, name + ".mod"), "w") as f:
            f.write(text)
    return sources


def _refresh(tmp, cache_dir):
    """Bring every interface in ``tmp`` up to date; returns the modules
    that were (re-)analysed."""
    result = build_dir(tmp, BuildOptions(cache_dir=cache_dir, iface_dir=tmp))
    return result.analysed


def _edit(tmp, name, text):
    with open(os.path.join(tmp, name + ".mod"), "w") as f:
        f.write(text)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def test_separate_analysis(benchmark, table, tmp_path):
    tmp = str(tmp_path / "src")
    os.makedirs(tmp)
    cache_dir = str(tmp_path / "cache")
    sources = _write_sources(tmp)
    _refresh(tmp, cache_dir)  # prime all interfaces
    leaf = "M%d" % (N_MODULES - 1)

    def scenario():
        rows = []
        linked = load_program_dir(tmp)
        t_whole, _ = _timed(lambda: analyse_program(linked))

        future = time.time() + 10
        for name in sources:
            os.utime(os.path.join(tmp, name + ".mod"), (future, future))
        t_touch, touched = _timed(lambda: _refresh(tmp, cache_dir))

        _edit(tmp, leaf, sources[leaf] + "leaf_extra n x = x\n")
        t_leaf, leafed = _timed(lambda: _refresh(tmp, cache_dir))

        _edit(tmp, "M0", "-- cutoff probe\n" + sources["M0"])
        t_cut, cut = _timed(lambda: _refresh(tmp, cache_dir))

        _edit(tmp, "M0", sources["M0"] + "root_extra n x = x\n")
        t_root, rooted = _timed(lambda: _refresh(tmp, cache_dir))

        rows.append(["whole-program re-analysis", N_MODULES, "%.2f ms" % (t_whole * 1e3)])
        rows.append(["touch all (digests)", len(touched), "%.2f ms" % (t_touch * 1e3)])
        rows.append(["leaf edit", len(leafed), "%.2f ms" % (t_leaf * 1e3)])
        rows.append(["root edit, comment (cutoff)", len(cut), "%.2f ms" % (t_cut * 1e3)])
        rows.append(["root edit, new export", len(rooted), "%.2f ms" % (t_root * 1e3)])
        return rows, t_whole, t_leaf, touched, leafed, cut, rooted

    rows, t_whole, t_leaf, touched, leafed, cut, rooted = benchmark.pedantic(
        scenario, rounds=1, iterations=1
    )
    table(
        "Ablation — separate analysis via interface digests (%d-module chain)"
        % N_MODULES,
        ["scenario", "modules analysed", "time"],
        rows,
    )
    assert touched == []
    assert leafed == ["M%d" % (N_MODULES - 1)]
    assert cut == ["M0"], "early cutoff: the comment edit dirties M0 alone"
    assert rooted == ["M0"], "cutoff at M1's import: it uses no new export"
    assert t_leaf * 3 < t_whole, "a leaf edit must be far cheaper"


def test_prime_interfaces_speed(benchmark, tmp_path):
    tmp = str(tmp_path / "src")
    os.makedirs(tmp)
    _write_sources(tmp)
    rounds = itertools.count()

    def prime():
        cache_dir = str(tmp_path / ("cache%d" % next(rounds)))
        return _refresh(tmp, cache_dir)

    benchmark(prime)
