"""The memoized horizontal table behind the streaming NFTA run: the
start-time reject of a misplaced child, one table shared by threads,
the table bound, and trees deeper than the recursion limit."""

import random
import sys
import threading

from repro.errors import DTDParseError, RegexParseError, SchemaError
from repro.trees import DTD, EDTD, Tree, TreeAutomaton, TreeNode, random_tree
from repro.trees import automata
from repro.trees.automata import StreamingTreeValidator
from repro.trees.streaming import events_of, validate_stream
from repro.testing.generators import random_edtd_rules, random_event_stream


def sections() -> TreeAutomaton:
    """Not single-type: two types share the label ``sec``."""
    edtd = EDTD.from_rules(
        {
            "doc": "(sec1 | sec2)*",
            "sec1": "(title para*)",
            "sec2": "(para+)",
            "title": "",
            "para": "",
        },
        start=["doc"],
        mu={"sec1": "sec", "sec2": "sec"},
    )
    return TreeAutomaton.from_edtd(edtd)


def run(automaton, events):
    """(verdict, failure, index of the failing event, high-water marks)."""
    validator = StreamingTreeValidator(automaton)
    failed_at = None
    for index, event in enumerate(events):
        if not validator.feed(event):
            failed_at = index
            break
    return (
        validator.finish(),
        validator.failure,
        failed_at,
        validator.max_stack_depth,
        validator.max_tracked_cells,
    )


def streams(seed: int, count: int):
    """(rules, start, mu, events) cases over random non-single-type EDTDs."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        rules, start, mu = random_edtd_rules(rng)
        try:
            EDTD.from_rules(rules, start=list(start), mu=dict(mu))
        except (DTDParseError, RegexParseError, SchemaError, ValueError):
            continue  # malformed rule text, as in the tree-automata oracle
        cases.append((rules, list(start), dict(mu), list(random_event_stream(rng))))
    return cases


def compile_case(rules, start, mu) -> TreeAutomaton:
    return TreeAutomaton.from_edtd(EDTD.from_rules(rules, start=start, mu=mu))


def test_misplaced_child_fails_at_its_start_event():
    automaton = sections()
    events = list(events_of("<doc><sec><para/><title/></sec></doc>"))
    verdict, failure, failed_at, depth, _ = run(automaton, events)
    assert not verdict
    # neither sec1 (title first) nor sec2 (paras only) takes a title
    # after a para: the start event of <title> is the failing one
    assert events[failed_at] == ("start", "title")
    assert failure == "child 'title' not allowed here under 'sec'"
    assert depth == 3  # <title> was never pushed


def test_child_admitted_by_one_candidate_is_not_rejected_early():
    automaton = sections()
    assert run(automaton, events_of("<doc><sec><title/><para/></sec></doc>"))[0]
    assert run(automaton, events_of("<doc><sec><para/><para/></sec></doc>"))[0]
    # a label no candidate of the parent names at all
    verdict, failure, failed_at, _, _ = run(
        automaton, list(events_of("<doc><sec><doc/></sec></doc>"))
    )
    assert not verdict and failed_at == 2
    assert failure == "child 'doc' not allowed here under 'sec'"


def test_non_root_label_fails_at_the_root_start_event():
    automaton = sections()
    verdict, failure, failed_at, depth, _ = run(
        automaton, [("start", "sec"), ("end", "sec")]
    )
    assert not verdict and failed_at == 0 and depth == 0
    assert failure == "root element 'sec' admits no start type"


def test_cold_and_warm_tables_agree():
    for rules, start, mu, events in streams(seed=7, count=60):
        automaton = compile_case(rules, start, mu)
        assert run(automaton, events) == run(automaton, events)


def suffix_family(k: int) -> TreeAutomaton:
    """``r`` holds a/b leaves whose k-th last is an ``a``: its horizontal
    subsets number 2^k, so a cold table takes many misses."""
    tail = " ".join(["(a|b)"] * (k - 1))
    dtd = DTD.from_rules({"r": f"(a|b)* a {tail}"}, start=["r"])
    return TreeAutomaton.from_dtd(dtd)


def test_threads_sharing_one_automaton_get_the_serial_results():
    rng = random.Random(11)
    docs = []
    for _ in range(16):
        leaves = "".join(rng.choice("ab") for _ in range(rng.randrange(8, 40)))
        docs.append(list(Tree.build("r", *leaves).root.events()))
    expected = [run(suffix_family(6), events) for events in docs]
    workers = 4  # more threads than the host's cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside table misses
    try:
        for round_ in range(10):
            shared = suffix_family(6)  # cold table, filled by every thread
            results = [[] for _ in range(workers)]
            barrier = threading.Barrier(workers)

            def worker(slot):
                order = list(range(len(docs)))
                random.Random(round_ * workers + slot).shuffle(order)
                barrier.wait()
                for index in order:
                    results[slot].append((index, run(shared, docs[index])))

            threads = [
                threading.Thread(target=worker, args=(slot,)) for slot in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            for runs in results:
                assert len(runs) == len(docs)
                assert all(got == expected[index] for index, got in runs)
    finally:
        sys.setswitchinterval(interval)


def test_bounded_table_keeps_verdicts_and_stays_within_its_bound(monkeypatch):
    rules = {"r": "(a|b)*", "a": "(b?)", "b": "(a*)"}
    dtd = DTD.from_rules(rules, start=["r"])
    rng = random.Random(3)
    trees = [random_tree(dtd, rng) for _ in range(40)]
    dtd_case = (rules, ["r"], {})
    cases = streams(seed=5, count=80)
    cases += [dtd_case + (list(events_of(tree)),) for tree in trees]
    expected = [run(compile_case(*case[:3]), case[3]) for case in cases]
    tree_expected = [dtd.validate(tree) for tree in trees]

    bound = 8
    monkeypatch.setattr(automata, "_TABLE_LIMIT", bound)
    shared = compile_case(*dtd_case)  # one automaton for every tree stream
    migrated = 0
    for (case_rules, start, mu, events), want in zip(cases, expected):
        automaton = shared if case_rules is rules else compile_case(case_rules, start, mu)
        for _ in range(2):  # the second run starts on a warm or full table
            validator = StreamingTreeValidator(automaton)
            table = validator._table
            failed_at = None
            for index, event in enumerate(events):
                ok = validator.feed(event)
                migrated += validator._table is not table
                table = validator._table
                assert table.entries <= bound
                assert automaton._table.entries <= bound
                if not ok:
                    failed_at = index
                    break
            got = (
                validator.finish(),
                validator.failure,
                failed_at,
                validator.max_stack_depth,
                validator.max_tracked_cells,
            )
            assert got == want
    assert migrated  # runs in flight moved to fresh tables
    automaton = TreeAutomaton.from_dtd(dtd)
    assert [automaton.validate(tree) for tree in trees] == tree_expected


def test_deep_trees_stream_and_validate_without_recursion():
    root = node = TreeNode("a")
    for _ in range(3000):  # far past the interpreter's recursion limit
        node = node.add_child(TreeNode("a"))
    tree = Tree(root)
    events = list(events_of(tree))
    assert len(events) == 6002 and events[0] == events[1] == ("start", "a")
    dtd = DTD.from_rules({"a": "a?"}, start=["a"])
    assert validate_stream(dtd, events)
    assert dtd.tree_automaton.validate(tree)
