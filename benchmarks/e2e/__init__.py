"""End-to-end + per-layer benchmark of the reproduction (see README.md).

A package only so that its modules import as ``e2e.<name>``: the
tracing module is called ``trace`` and must not shadow the standard
library's, and the callback wrappers it puts into simulator heaps have
to pickle by a stable dotted path when a traced world is snapshotted.
"""
