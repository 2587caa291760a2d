"""Differential fuzzing and property testing for the repro codebase.

PR 1 split several subsystems into a fast path and a reference path
(compiled RPQ plans vs the seed evaluators, streaming vs in-memory DTD
validation, a hand-written JSON scanner vs what stdlib would do).  This
package guards those pairs with machine-generated inputs:

* :mod:`repro.testing.generators` — seedable, grammar-aware input
  generators (JSON documents, labeled trees + DTDs, regexes over small
  alphabets, RPQ cases, SPARQL queries);
* :mod:`repro.testing.oracles` — pluggable differential oracles; each
  generates cases, checks one case for a divergence, shrinks failures
  and round-trips cases through JSON for the regression corpus;
* :mod:`repro.testing.reference` — reference implementations the
  production fast paths are checked against (the regex SPARQL lexer,
  the multi-pass analysis battery);
* :mod:`repro.testing.shrink` — the greedy shrinking loop;
* :mod:`repro.testing.runner` — the timed/counted fuzz loop and corpus
  replay;
* :mod:`repro.testing.corpus` — the checked-in regression corpus
  (JSONL, replayed by ``tests/testing/test_regressions.py``);
* CLI: ``python -m repro.testing fuzz --target json --seconds 30
  --seed N``.

To add an oracle, subclass :class:`repro.testing.oracles.Oracle`,
implement ``generate``/``check``/``shrink_candidates`` plus the
``encode``/``decode`` pair, and register an instance in
:data:`repro.testing.oracles.ORACLES`; the runner, CLI, corpus replay
and CI smoke job pick it up by name.
"""

from .._exports import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "cli": (),
    "corpus": (),
    "generators": (),
    "oracles": ("ORACLES", "Oracle"),
    "reference": (),
    "runner": ("Divergence", "FuzzReport", "fuzz", "replay"),
    "shrink": ("shrink",),
})
