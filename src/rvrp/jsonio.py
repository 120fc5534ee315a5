"""The one JSON reader and writer of rvrp. :func:`read_json` reads instance
files, solutions and the suite manifest, and refuses an object that repeats
a key or a document nested too deeply to read. :func:`write_json` writes
those and experiment reports, timing files and GeoJSON.

:func:`dumps` returns exactly ``json.dumps(value, indent=1)``. The standard
library encodes any ``indent`` in pure Python; here every container that
holds no other container (a matrix row, a node, a route) is encoded by the C
encoder in one call, with the line break and indent folded into its item
separator, and only the containers above those are joined in Python.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import repeat
from pathlib import Path

_CONTAINERS = (list, tuple, dict)


@lru_cache(maxsize=None)
def _flat_encoder(inner: str):
    """C-encoder ``encode`` that separates items by a line break and ``inner``."""
    return json.JSONEncoder(separators=(",\n" + inner, ": ")).encode


def _key(key) -> str:
    """A dict key as ``json`` writes it: quoted, a non-str key spelled first."""
    return json.dumps({key: 0})[1:-4]


def _encode(value, indent: str) -> str:
    inner = indent + " "
    if not isinstance(value, _CONTAINERS):
        return _flat_encoder(inner)(value)
    is_dict = isinstance(value, dict)
    items = value.values() if is_dict else value
    # the item types, collected in C; a row of floats has one
    if not any(map(issubclass, set(map(type, items)), repeat(_CONTAINERS))):
        text = _flat_encoder(inner)(value)
        if len(text) == 2:  # empty
            return text
        return f"{text[0]}\n{inner}{text[1:-1]}\n{indent}{text[-1]}"
    if is_dict:
        parts = [f"{_key(k)}: {_encode(v, inner)}" for k, v in value.items()]
        opening, closing = "{", "}"
    else:
        parts = [_encode(v, inner) for v in value]
        opening, closing = "[", "]"
    separator = ",\n" + inner
    return f"{opening}\n{inner}{separator.join(parts)}\n{indent}{closing}"


def dumps(value) -> str:
    """``json.dumps(value, indent=1)``, encoded mostly in C."""
    return _encode(value, "")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's ``(key, value)`` pairs as a dict; a ValueError naming
    the first key that comes twice, which ``json`` would read as its last."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        key = next(k for pos, k in enumerate(keys) if k in keys[:pos])
        raise ValueError(f"the document repeats the key {key!r}")
    return obj


def read_json(path: str | Path):
    """The JSON document in the UTF-8 file ``path``, less a leading byte-order
    mark (RFC 8259 8.1); not JSON, an object repeating a key, or nesting
    deeper than ``json`` can recurse from the caller's stack is a ValueError."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError("the document nests its arrays or objects too deeply to read") from None


def require_directory(path: str | Path) -> Path:
    """``path`` as a Path, unless it cannot be made a directory because it,
    or the nearest of its parents that exists, is not one: that is a
    NotADirectoryError ending ``<that path> is not a directory``."""
    path = Path(path)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"{existing} is not a directory")
    return path


def write_json(path: str | Path, value) -> Path:
    """Write ``value`` as indented JSON plus a final newline, creating the
    parent directories (:func:`require_directory`'s rule)."""
    path = Path(path)
    require_directory(path.parent).mkdir(parents=True, exist_ok=True)
    path.write_text(dumps(value) + "\n", encoding="utf-8")
    return path
