"""Orchestration: the practical-study methodology as a library, plus
cross-subsystem primitives (content-addressing in :mod:`.hashing`)."""

from .._exports import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "hashing": ("payload_fingerprint", "text_key"),
    "parallelism": (),
    "study": ("PracticalStudy", "StudyScale", "perspective_note"),
})
