"""Compiled-plan RPQ engine vs the seed evaluator.

A repeated-expression RPQ workload over a generated FOAF graph with
>= 50k triples — the regime of the paper's corpus-scale studies, where
the same few path expressions are evaluated over and over.  The seed
path re-derives the Glushkov automaton per call and walks string-keyed
dicts one source at a time; the compiled path hits the plan cache and
steps integer bitmasks over the interned adjacency.

Timings land in ``benchmarks/results/rpq_engine.json`` so the speedup
is recorded, not asserted from memory.  Run standalone with::

    PYTHONPATH=src python benchmarks/bench_rpq_engine.py

or via pytest (the equality checks plus the >= 3x compiled-vs-seed
gate then run).
"""

import gc
import json
import os
import pathlib
import random
import time

from repro.graphs.engine import clear_plan_cache, plan_cache_info
from repro.graphs.generator import foaf_rdf
from repro.graphs.paths import evaluate_rpq, evaluate_rpq_reference
from repro.regex.ast import Concat, Optional, Plus, Star, Symbol, Union

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "rpq_engine.json"
)

NUM_PEOPLE = int(os.environ.get("REPRO_BENCH_RPQ_PEOPLE", "11000"))
NUM_SOURCES = int(os.environ.get("REPRO_BENCH_RPQ_SOURCES", "300"))
#: each phase re-runs the same expressions this many times — the
#: repeated-expression regime the plan cache is built for
NUM_ROUNDS = int(os.environ.get("REPRO_BENCH_RPQ_ROUNDS", "3"))
#: the cyclic all-pairs phase runs on a smaller store: the seed path is
#: quadratic there and would dominate the whole benchmark otherwise
NUM_PEOPLE_CYCLIC = int(os.environ.get("REPRO_BENCH_RPQ_CYCLIC", "2000"))

KNOWS = Symbol("foaf:knows")
KNOWS_INV = Symbol("^foaf:knows")

#: the repeated expressions of the workload (name -> AST).  These are
#: deliberately non-trivial: the seed evaluator re-derives the Glushkov
#: automaton for every one of the hundreds of calls, while the compiled
#: engine builds each plan once.
NAME = Symbol("foaf:name")
MBOX = Symbol("foaf:mbox")

def _chain(base, required, optional):
    """``base{required, required+optional}`` as a Concat of atoms."""
    return Concat(
        tuple([base] * required + [Optional(base)] * optional)
    )


EXPRESSIONS = {
    "knows{2,10}": _chain(KNOWS, 2, 8),
    "knows{3,12}": _chain(KNOWS, 3, 9),
    "(knows|^knows).name": Concat((Union((KNOWS, KNOWS_INV)), NAME)),
    "^knows{1,3}.name?": Concat(
        (KNOWS_INV, Optional(KNOWS_INV), Optional(KNOWS_INV), Optional(NAME))
    ),
    "(knows.knows)+.mbox?": Concat(
        (Plus(Concat((KNOWS, KNOWS))), Optional(MBOX))
    ),
}

#: all-pairs on the smaller cyclic store: exercises the multi-source
#: propagation path (the automaton has a productive cycle)
CYCLIC_EXPRESSION = Plus(KNOWS)

#: evaluated with sources=None (the multi-source all-pairs path)
ALL_PAIRS_EXPRESSIONS = {
    "mbox": MBOX,
    "knows.mbox": Concat((KNOWS, MBOX)),
}


def build_workload():
    store = foaf_rdf(NUM_PEOPLE, random.Random(2022))
    cyclic_store = foaf_rdf(NUM_PEOPLE_CYCLIC, random.Random(11))
    rng = random.Random(7)
    sources = rng.sample(sorted(store.nodes()), NUM_SOURCES)
    return store, cyclic_store, sources


def run_workload(store, cyclic_store, sources, evaluate):
    """One full pass: ``NUM_ROUNDS`` rounds of every expression from
    every source plus the all-pairs queries, then one cyclic all-pairs
    query on the smaller store.  Returns (answers, per-phase seconds)."""
    answers = {}
    timings = {}
    for name, expr in EXPRESSIONS.items():
        started = time.perf_counter()
        for _round in range(NUM_ROUNDS):
            collected = [
                frozenset(evaluate(store, expr, sources=[source]))
                for source in sources
            ]
        timings[name] = time.perf_counter() - started
        answers[name] = collected
    for name, expr in ALL_PAIRS_EXPRESSIONS.items():
        started = time.perf_counter()
        for _round in range(NUM_ROUNDS):
            result = frozenset(evaluate(store, expr))
        answers[f"all-pairs:{name}"] = result
        timings[f"all-pairs:{name}"] = time.perf_counter() - started
    started = time.perf_counter()
    answers["all-pairs-cyclic:knows+"] = frozenset(
        evaluate(cyclic_store, CYCLIC_EXPRESSION)
    )
    timings["all-pairs-cyclic:knows+"] = time.perf_counter() - started
    return answers, timings


def run_benchmark():
    store, cyclic_store, sources = build_workload()
    # freeze everything built so far before each side's timed run (the
    # stores, the host process's heap -- pytest holds far more than a
    # plain interpreter -- and the seed side's answers): otherwise every
    # full collection a timed phase triggers re-traverses them, and that
    # cost depends on the host process and on the side order, not on
    # the engine
    gc.collect()
    gc.freeze()
    try:
        seed_answers, seed_timings = run_workload(
            store, cyclic_store, sources, evaluate_rpq_reference
        )
        clear_plan_cache()
        gc.collect()
        gc.freeze()
        compiled_answers, compiled_timings = run_workload(
            store, cyclic_store, sources, evaluate_rpq
        )
    finally:
        gc.unfreeze()
    assert seed_answers == compiled_answers, "engines disagree"
    seed_total = sum(seed_timings.values())
    compiled_total = sum(compiled_timings.values())
    result = {
        "triples": len(store),
        "nodes": store.node_count(),
        "cyclic_store_triples": len(cyclic_store),
        "sources_per_expression": NUM_SOURCES,
        "rounds": NUM_ROUNDS,
        "expressions": sorted(seed_timings),
        "seed_seconds": round(seed_total, 4),
        "compiled_seconds": round(compiled_total, 4),
        "speedup": round(seed_total / compiled_total, 2),
        "per_phase": {
            name: {
                "seed_seconds": round(seed_timings[name], 4),
                "compiled_seconds": round(compiled_timings[name], 4),
                "speedup": round(
                    seed_timings[name] / max(compiled_timings[name], 1e-9), 2
                ),
            }
            for name in seed_timings
        },
        "plan_cache": plan_cache_info(),
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print("\n===== rpq_engine =====")
    print(json.dumps(result, indent=2))
    return result


def test_rpq_engine_speedup():
    result = run_benchmark()
    assert result["triples"] >= 50_000
    assert result["speedup"] >= 3.0, result


if __name__ == "__main__":
    run_benchmark()
