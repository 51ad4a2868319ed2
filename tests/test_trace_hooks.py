"""The benchmark's trace hooks still find every name they wrap.

``perfbench/spans.py`` replaces each ``(owner, attr)`` of its ``WRAPPED``
table through ``owner.__dict__[attr]``, so a src change that drops or moves
one of those names breaks traced benchmark runs.  The module is only
imported; nothing is wrapped.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_wrapped_name_is_where_it_is_called(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in spans.WRAPPED if attr not in owner.__dict__]
    assert not missing
