"""The mapped store must be indistinguishable from the live store it
was frozen from: same triples, same engine answers, same fingerprint —
in this process, in pool workers attached by path, and across
independent processes.  Mutation must fail with the typed frozen error,
and a task shipped to a worker must carry the image *path*, never the
triple data."""

import io
import json
import os
import pickle
import pickletools
import random
import struct
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.errors import StoreFrozenError, StoreImageError
from repro.graphs.engine import compile_rpq
from repro.graphs.rdf import TripleStore
from repro.regex.ast import Concat, Star, Symbol, Union
from repro.store import (
    MAGIC,
    MappedTripleStore,
    attach,
    freeze,
    image_fingerprint,
    read_header,
    write_image,
)
from repro.store.mmapstore import FORMAT_VERSION, detach_all


def build_store(seed=7, nodes=40, triples=220) -> TripleStore:
    rng = random.Random(seed)
    store = TripleStore()
    names = [f"n{i}" for i in range(nodes)]
    for _ in range(triples):
        store.add(rng.choice(names), rng.choice("abc"), rng.choice(names))
    return store


@pytest.fixture
def image(tmp_path):
    store = build_store()
    path = tmp_path / "store.img"
    store.save(path)
    return store, path


EXPRS = [
    Symbol("a"),
    Concat((Symbol("a"), Symbol("b"))),
    Concat((Symbol("a"), Star(Union((Symbol("b"), Symbol("c")))))),
    Star(Symbol("c")),
]


class TestRoundTrip:
    def test_store_surface_is_identical(self, image):
        store, path = image
        with MappedTripleStore.load(path) as mapped:
            assert len(mapped) == len(store)
            assert set(mapped.triples()) == set(store.triples())
            assert mapped.nodes() == store.nodes()
            assert mapped.predicates() == store.predicates()
            assert mapped.subjects() == store.subjects()
            assert mapped.objects() == store.objects()
            for triple in list(store.triples())[:20]:
                assert triple in mapped
            assert ("absent", "a", "absent") not in mapped
            for node in list(store.nodes())[:10]:
                for predicate in ("a", "b", "c"):
                    assert mapped.successors(node, predicate) == (
                        store.successors(node, predicate)
                    )
                    assert mapped.predecessors(node, predicate) == (
                        store.predecessors(node, predicate)
                    )

    def test_interning_layer_is_identical(self, image):
        store, path = image
        with MappedTripleStore.load(path) as mapped:
            assert mapped.node_count() == store.node_count()
            for name in store.nodes():
                nid = mapped.node_id(name)
                assert nid is not None
                assert mapped.node_name(nid) == name
            assert mapped.node_id("absent") is None
            assert sorted(mapped.predicate_names()) == sorted(
                store.predicate_names()
            )

    def test_engine_answers_are_identical(self, image):
        store, path = image
        with MappedTripleStore.load(path) as mapped:
            for expr in EXPRS:
                plan = compile_rpq(expr)
                assert plan.evaluate(mapped) == plan.evaluate(store)
            sources = sorted(store.nodes())[:10]
            plan = compile_rpq(EXPRS[2])
            assert plan.evaluate(mapped, sources=sources) == (
                plan.evaluate(store, sources=sources)
            )

    def test_dataset_metrics_match(self, image):
        store, path = image
        with MappedTripleStore.load(path) as mapped:
            live = store.dataset_report()
            frozen = mapped.dataset_report()
            assert live.keys() == frozen.keys()
            for key in live:
                assert frozen[key] == pytest.approx(live[key])

    def test_empty_store_round_trips(self, tmp_path):
        path = tmp_path / "empty.img"
        empty = TripleStore()
        empty.save(path)
        with MappedTripleStore.load(path) as mapped:
            assert len(mapped) == 0
            assert mapped.nodes() == frozenset()
            assert mapped.predicates() == frozenset()
            assert mapped.fingerprint() == empty.fingerprint()
            assert compile_rpq(Symbol("a")).evaluate(mapped) == set()

    def test_freeze_returns_an_open_mapped_store(self, tmp_path):
        store = build_store(seed=3)
        with freeze(store, tmp_path / "f.img") as mapped:
            assert mapped.fingerprint() == store.fingerprint()
            assert set(mapped.triples()) == set(store.triples())


class TestFingerprintIdentity:
    def test_mapped_reports_the_frozen_fingerprint(self, image):
        store, path = image
        assert image_fingerprint(path) == store.fingerprint()
        with MappedTripleStore.load(path) as mapped:
            assert mapped.fingerprint() == store.fingerprint()

    def test_scoped_fingerprints_match_the_live_store(self, image):
        store, path = image
        names = store.predicate_names()
        with MappedTripleStore.load(path) as mapped:
            assert mapped.fingerprint(names) == mapped.fingerprint()
            for predicate in names:
                assert mapped.fingerprint([predicate]) == (
                    store.fingerprint([predicate])
                )
            assert mapped.fingerprint(names[:2]) == store.fingerprint(names[:2])

    def test_scoped_fingerprints_read_the_header(self, image, monkeypatch):
        store, path = image
        names = store.predicate_names()
        assert len(read_header(path)["predicate_content"]) == len(names)

        def refuse(*args, **kwargs):
            raise AssertionError("a recorded image must not scan triples")

        with MappedTripleStore.load(path) as mapped:
            monkeypatch.setattr(mapped, "triples", refuse)
            for scope in ([names[0]], names[:2], names, [names[1], "absent"]):
                assert mapped.fingerprint(scope) == store.fingerprint(scope)

    def test_malformed_predicate_content_is_refused(self, image, tmp_path):
        _, path = image
        bad = mangle_header(
            path, tmp_path, lambda h: h["predicate_content"].pop()
        )
        with pytest.raises(StoreImageError):
            MappedTripleStore.load(bad)

    def test_save_returns_the_fingerprint(self, tmp_path):
        store = build_store(seed=1)
        assert store.save(tmp_path / "s.img") == store.fingerprint()

    def test_cross_process_identity(self, image, tmp_path):
        # an independent process building the same triples in a
        # *different order* must agree on the fingerprint — the property
        # that keeps result caches warm across restarts
        store, path = image
        script = (
            "import sys, json\n"
            "from repro.graphs.rdf import TripleStore\n"
            "triples = json.load(open(sys.argv[1]))\n"
            "store = TripleStore(reversed([tuple(t) for t in triples]))\n"
            "print(store.fingerprint())\n"
        )
        triples_path = tmp_path / "triples.json"
        triples_path.write_text(json.dumps(sorted(store.triples())))
        result = subprocess.run(
            [sys.executable, "-c", script, str(triples_path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.getcwd(),
            check=True,
        )
        assert result.stdout.strip() == store.fingerprint()


class TestFrozen:
    def test_add_raises_typed_error(self, image):
        _, path = image
        with MappedTripleStore.load(path) as mapped:
            with pytest.raises(StoreFrozenError):
                mapped.add("x", "p", "y")
            # the wire code the serving layer transports
            assert StoreFrozenError.code == "store_frozen"

    def test_freezing_a_mapped_store_is_rejected(self, image, tmp_path):
        _, path = image
        with MappedTripleStore.load(path) as mapped:
            with pytest.raises(StoreFrozenError):
                write_image(mapped, tmp_path / "copy.img")


def mangle_header(path, tmp_path, edit):
    """A copy of the image at ``path`` whose JSON header went through
    ``edit`` (in place), padded back to its original length so every
    section offset still points at the same bytes."""
    data = path.read_bytes()
    header_len = struct.unpack("<Q", data[8:16])[0]
    header = json.loads(data[16 : 16 + header_len])
    edit(header)
    blob = json.dumps(header, ensure_ascii=False).encode("utf-8")
    assert len(blob) <= header_len
    bad = tmp_path / "mangled.img"
    padded = blob.ljust(header_len, b" ")
    bad.write_bytes(data[:16] + padded + data[16 + header_len :])
    return bad


class TestImageErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.img"
        path.write_bytes(b"NOTANIMG" + b"\x00" * 64)
        with pytest.raises(StoreImageError):
            read_header(path)

    def test_truncated_prefix(self, tmp_path):
        path = tmp_path / "short.img"
        path.write_bytes(MAGIC[:4])
        with pytest.raises(StoreImageError):
            read_header(path)

    def test_truncated_header(self, image, tmp_path):
        _, path = image
        data = path.read_bytes()
        clipped = tmp_path / "clipped.img"
        clipped.write_bytes(data[:24])
        with pytest.raises(StoreImageError):
            MappedTripleStore.load(clipped)

    def test_unsupported_format_version(self, image, tmp_path):
        _, path = image
        assert read_header(path)["format"] == FORMAT_VERSION
        bad = mangle_header(path, tmp_path, lambda h: h.update(format=9))
        with pytest.raises(StoreImageError):
            read_header(bad)

    @pytest.mark.parametrize("section", ["node_blob", "ftargets_0"])
    @pytest.mark.parametrize("bound", [(-16, None), (None, -8), (8.0, None)])
    def test_negative_or_non_integer_section_bounds(
        self, tmp_path, section, bound
    ):
        # names long enough that a two-character bound fits the header
        a, b, c = "alpha", "beta", "gamma"
        store = TripleStore([(a, "p", b), (b, "p", c), (c, "p", a)])
        path = tmp_path / "three.img"
        store.save(path)

        def edit(header):
            placed = header["sections"][section]
            for index, value in enumerate(bound):
                if value is not None:
                    placed[index] = value

        bad = mangle_header(path, tmp_path, edit)
        with pytest.raises(StoreImageError):
            MappedTripleStore.load(bad)

    def test_csr_entry_with_too_few_sections(self, image, tmp_path):
        _, path = image
        bad = mangle_header(path, tmp_path, lambda h: h["csr"][0].pop())
        with pytest.raises(StoreImageError):
            MappedTripleStore.load(bad)

    @pytest.mark.parametrize("field", ["nodes", "triples", "fingerprint"])
    def test_missing_header_field(self, image, tmp_path, field):
        _, path = image
        bad = mangle_header(path, tmp_path, lambda h: h.pop(field))
        with pytest.raises(StoreImageError):
            MappedTripleStore.load(bad)


def _worker_pairs(payload):
    """Pool worker: evaluate an expression over a store that arrives
    attached-by-path."""
    store, expr = payload
    return sorted(compile_rpq(expr).evaluate(store))


class TestZeroCopyWorkers:
    def test_pickle_is_path_only(self, image):
        _, path = image
        mapped = attach(path)
        blob = pickle.dumps(mapped)
        assert len(blob) < 400
        assert str(path).encode("utf-8") in blob
        # no node name may ride along: the store holds n0..n39
        rendered = io.StringIO()
        pickletools.dis(blob, out=rendered)
        assert "'n17'" not in rendered.getvalue()

    def test_attach_is_memoized_per_process(self, image):
        _, path = image
        first = attach(path)
        assert attach(path) is first
        assert pickle.loads(pickle.dumps(first)) is first
        detach_all()
        second = attach(path)
        assert second is not first
        second.close()

    def test_concurrent_multiprocess_readers(self, image):
        store, path = image
        mapped = attach(path)
        expected = [sorted(compile_rpq(e).evaluate(store)) for e in EXPRS]
        with ProcessPoolExecutor(max_workers=2) as pool:
            results = list(
                pool.map(_worker_pairs, [(mapped, e) for e in EXPRS] * 2)
            )
        assert results == expected * 2

    def test_no_triple_data_crosses_the_pool_boundary(self, image, tmp_path):
        # pickle-interposition: serialize exactly what a pool task would
        # carry and assert the payload is path-sized — it must not grow
        # with the number of triples behind the image
        _, path = image
        small_task = pickle.dumps((attach(path), EXPRS[2], None))
        assert len(small_task) < 600
        big = build_store(seed=9, nodes=400, triples=5000)
        big_path = tmp_path / "big.img"
        big.save(big_path)
        big_task = pickle.dumps((attach(big_path), EXPRS[2], None))
        assert abs(len(big_task) - len(small_task)) < 64
        rendered = io.StringIO()
        pickletools.dis(big_task, out=rendered)
        assert "'n17'" not in rendered.getvalue()


class TestEngineCaches:
    def test_specialization_cache_is_per_store_identity(self, tmp_path):
        # one compiled plan, two different images: the engine's
        # specialization cache (keyed on store identity + version) must
        # not leak answers from one mapped store into the other
        first_store = build_store(seed=11, triples=60)
        second_store = build_store(seed=12, triples=60)
        plan = compile_rpq(Concat((Symbol("a"), Star(Symbol("b")))))
        with freeze(first_store, tmp_path / "a.img") as first:
            with freeze(second_store, tmp_path / "b.img") as second:
                assert plan.evaluate(first) == plan.evaluate(first_store)
                assert plan.evaluate(second) == plan.evaluate(second_store)
                # interleave to catch stale-cache reuse
                assert plan.evaluate(first) == plan.evaluate(first_store)

    def test_mapped_version_is_constant(self, image):
        _, path = image
        with MappedTripleStore.load(path) as mapped:
            plan = compile_rpq(Symbol("a"))
            before = mapped.version
            plan.evaluate(mapped)
            plan.evaluate(mapped)
            assert mapped.version == before == 0


class TestSparqlOverMapped:
    def test_evaluation_matches_live(self, image):
        from repro.sparql.evaluation import evaluate
        from repro.sparql.parser import parse_query

        store, path = image
        query = parse_query(
            "SELECT ?x ?z WHERE { ?x <a> ?y . ?y <b> ?z }"
        )
        with MappedTripleStore.load(path) as mapped:
            live = sorted(map(tuple, evaluate(store, query)))
            frozen = sorted(map(tuple, evaluate(mapped, query)))
            assert live == frozen


#: written by the format-2 writer that still emitted the per-node
#: ``label_out``/``label_in`` bitmask sections, from
#: ``build_store(seed=5, nodes=12, triples=30)``
LABEL_SUMMARY_IMAGE = Path(__file__).with_name("format2_label_summary.img")


class TestOlderImages:
    """Images older writers produced keep attaching with the same
    triples."""

    def test_format_1_image_attaches(self, image, tmp_path):
        store, path = image
        data = path.read_bytes()
        assert data.count(b'"format": 2') == 1
        old = tmp_path / "v1.img"
        old.write_bytes(data.replace(b'"format": 2', b'"format": 1'))
        assert read_header(old)["format"] == 1
        with MappedTripleStore.load(old) as mapped:
            assert set(mapped.triples()) == set(store.triples())
            assert mapped.fingerprint() == store.fingerprint()

    def test_format_2_image_with_label_summary_sections_attaches(self):
        store = build_store(seed=5, nodes=12, triples=30)
        header = read_header(LABEL_SUMMARY_IMAGE)
        assert header["format"] == 2
        assert {"label_out", "label_in"} <= set(header["sections"])
        with MappedTripleStore.load(LABEL_SUMMARY_IMAGE) as mapped:
            assert set(mapped.triples()) == set(store.triples())
            assert mapped.fingerprint() == store.fingerprint()
            assert mapped.fingerprint(mapped.predicate_names()) == (
                mapped.fingerprint()
            )
            # written before per-predicate content was recorded: scoped
            # fingerprints are derived from the mapped triples
            assert "predicate_content" not in header
            for predicate in store.predicate_names():
                assert mapped.fingerprint([predicate]) == (
                    store.fingerprint([predicate])
                )
            for expr in EXPRS:
                plan = compile_rpq(expr)
                assert plan.evaluate(mapped) == plan.evaluate(store)

    def test_new_images_carry_no_label_summary(self, image):
        _, path = image
        header = read_header(path)
        assert header["format"] == FORMAT_VERSION
        assert not {"label_out", "label_in"} & set(header["sections"])
        assert "label_summary" not in header
