"""Persistent triple-store images (:mod:`repro.store.mmapstore`).

The in-memory :class:`~repro.graphs.rdf.TripleStore` is the substrate
every engine in the toolkit runs on; this package makes it a *restart-
stable artifact*: :func:`~repro.store.mmapstore.write_image` freezes a
store into an on-disk image of fixed-width id arrays, CSR adjacency,
and an interned string table, and
:class:`~repro.store.mmapstore.MappedTripleStore` opens that image via
``mmap`` in microseconds — the same read API, zero-copy, with pages
shared read-only across worker processes.
"""

from .._exports import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "mmapstore": (
        "MAGIC", "MappedTripleStore", "attach", "freeze", "image_fingerprint", "read_header",
        "write_image",
    ),
})
