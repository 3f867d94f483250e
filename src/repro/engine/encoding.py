"""Per-column page encodings for the attribute-group store.

The hybrid store's narrow chains make analytical scans touch few pages;
this module makes each of those pages *denser*.  A column fragment can be
stored in one of four simulated wire formats:

* ``plain``  — the values themselves (the baseline: 8 bytes per value,
  standing in for a fixed-width slot in a real page),
* ``packed`` — homogeneous integers packed at the narrowest width that
  fits (1/2/4/8 bytes), or homogeneous floats at 8 bytes — the `array`
  module supplies the typed storage,
* ``dict``   — low-cardinality columns: a value dictionary plus packed
  codes (code width from the dictionary size),
* ``rle``    — run-length (value, count) pairs for sorted / clustered
  columns.

Sizes are *simulated bytes*, mirroring how ``page_capacity`` simulates an
8 KB block's value budget: the pager still counts whole-block reads, and
the store divides a page's byte budget by the encoded record size to
decide how many records an encoded page holds.  :func:`choose_encoding`
picks the smallest representation, falling back to ``plain`` for columns
that do not compress (mixed types, high-cardinality text).  Payloads are
immutable (tuples; ``bytes`` behind a typed ``memoryview`` for ``packed``)
and travel in one frozen :class:`EncodedPage` per page, so disk and buffer
frames share a page image instead of copying it.
"""

from __future__ import annotations

from array import array
from typing import Any, List, NamedTuple, Sequence, Tuple

from repro.errors import StorageError

__all__ = [
    "PLAIN_VALUE_BYTES",
    "EncodedPage",
    "plain_size",
    "encoded_size",
    "choose_encoding",
    "encode_column",
    "decode_column",
]

#: Simulated size of one plain value slot (~a 64-bit word per value).
PLAIN_VALUE_BYTES = 8

#: array typecodes by packed integer width, narrowest first.
_INT_WIDTHS: List[Tuple[int, str, int, int]] = [
    (1, "b", -(1 << 7), (1 << 7) - 1),
    (2, "h", -(1 << 15), (1 << 15) - 1),
    (4, "l", -(1 << 31), (1 << 31) - 1),
    (8, "q", -(1 << 63), (1 << 63) - 1),
]


class EncodedPage(NamedTuple):
    """An encoded page's ``"enc"`` header: ``(kind, payload)`` per column
    for the page's rids, with simulated sizes.  Frozen, never edited."""

    rids: Tuple[int, ...]
    cols: Tuple[Tuple[str, Any], ...]
    col_bytes: Tuple[int, ...]
    bytes: int
    plain_bytes: int


def plain_size(n_values: int) -> int:
    """Simulated bytes of ``n_values`` stored plain."""
    return n_values * PLAIN_VALUE_BYTES


def _int_width(values: Sequence[int]) -> Tuple[int, str]:
    lo = min(values)
    hi = max(values)
    for width, typecode, wmin, wmax in _INT_WIDTHS:
        if wmin <= lo and hi <= wmax:
            return width, typecode
    return 8, "q"


def _code_bytes(cardinality: int) -> int:
    """Bytes per dictionary code for ``cardinality`` distinct values."""
    if cardinality <= 1 << 8:
        return 1
    if cardinality <= 1 << 16:
        return 2
    return 4


def _pure_ints(values: Sequence[Any]) -> bool:
    return all(type(v) is int for v in values)


def _pure_floats(values: Sequence[Any]) -> bool:
    return all(type(v) is float for v in values)


def _runs(values: Sequence[Any]) -> List[Tuple[Any, int]]:
    # Runs and dictionary keys must be *identity-exact*: Python's ``1 ==
    # True == 1.0`` would otherwise conflate distinct stored values and
    # break the decode-to-identical-rows contract.
    runs: List[Tuple[Any, int]] = []
    for value in values:
        if runs and type(runs[-1][0]) is type(value) and runs[-1][0] == value:
            runs[-1] = (value, runs[-1][1] + 1)
        else:
            runs.append((value, 1))
    return runs


def choose_encoding(values: Sequence[Any]) -> Tuple[str, int]:
    """``(kind, simulated_bytes)`` of the smallest representation.

    Only proposes a non-plain kind when it actually beats plain — a
    column of distinct strings costs dictionary overhead for nothing.
    """
    n = len(values)
    best_kind, best_size = "plain", plain_size(n)
    if n == 0:
        return best_kind, best_size
    if None not in values:
        if _pure_ints(values):
            width, _ = _int_width(values)
            size = n * width
            if size < best_size:
                best_kind, best_size = "packed", size
        elif _pure_floats(values):
            size = n * 8
            if size < best_size:
                best_kind, best_size = "packed", size
    # Dictionary: distinct values stored once (plain), codes packed.
    try:
        distinct = set(values)
    except TypeError:
        return best_kind, best_size  # unhashable payloads stay plain
    dict_size = plain_size(len(distinct)) + n * _code_bytes(len(distinct))
    if dict_size < best_size:
        best_kind, best_size = "dict", dict_size
    runs = _runs(values)
    rle_size = len(runs) * (PLAIN_VALUE_BYTES + 4)
    if rle_size < best_size:
        best_kind, best_size = "rle", rle_size
    return best_kind, best_size


def encoded_size(n_values: int, kind: str, payload: Any) -> int:
    """Simulated bytes of an already-encoded column."""
    if kind == "plain":
        return plain_size(n_values)
    if kind == "packed":
        return len(payload[1])
    if kind == "dict":
        mapping, codes = payload
        return plain_size(len(mapping)) + len(codes) * _code_bytes(len(mapping))
    if kind == "rle":
        return len(payload) * (PLAIN_VALUE_BYTES + 4)
    raise StorageError(f"unknown column encoding {kind!r}")


def encode_column(values: Sequence[Any], kind: str) -> Any:
    """Encode one column fragment as ``kind``; returns the immutable
    payload: values (``plain``), ``(typecode, bytes)`` (``packed``),
    ``(distinct values, codes)`` (``dict``) or ``(value, count)`` runs."""
    if kind == "plain":
        return tuple(values)
    if kind == "packed":
        if _pure_ints(values):
            _, typecode = _int_width(values) if values else (1, "b")
        else:
            typecode = "d"
        return (typecode, array(typecode, values).tobytes())
    if kind == "dict":
        mapping: List[Any] = []
        index: dict = {}
        codes: List[int] = []
        for value in values:
            key = (type(value).__name__, value)
            code = index.get(key)
            if code is None:
                code = index[key] = len(mapping)
                mapping.append(value)
            codes.append(code)
        return (tuple(mapping), tuple(codes))
    if kind == "rle":
        return tuple(_runs(values))
    raise StorageError(f"unknown column encoding {kind!r}")


def decode_column(kind: str, payload: Any) -> List[Any]:
    """Decode a column fragment back to a plain value list."""
    if kind == "plain":
        return list(payload)
    if kind == "packed":
        return memoryview(payload[1]).cast(payload[0]).tolist()
    if kind == "dict":
        mapping, codes = payload
        return [mapping[code] for code in codes]
    if kind == "rle":
        out: List[Any] = []
        for value, count in payload:
            out.extend([value] * count)
        return out
    raise StorageError(f"unknown column encoding {kind!r}")
