"""The rules for values read from outside: files, wire lines and options.

An integer is an ``int``, never a ``bool`` or ``3.0``; a number is an int or
float that converts to a finite float (not ``NaN``, ``1e999`` or ``10**400``).
The raising forms name the value's path, such as ``conditions[5].sector``, in
a plain ``ValueError`` that each reader turns into its own error. A name that
becomes part of an output path must be a plain file name (``is_file_name``).
A JSON file that does not decode, also one nested too deeply for the decoder,
is a ``ValueError`` that names the file (``read_json``).
"""

from __future__ import annotations

import json
from itertools import chain
from math import isfinite
from pathlib import Path

_KIND_NAMES = {str: "a string", bool: "true or false", list: "a list", dict: "an object", int: "an integer"}


def is_int(value) -> bool:
    return type(value) is int or (isinstance(value, int) and not isinstance(value, bool))


def is_number(value) -> bool:
    try:
        return (isinstance(value, float) or is_int(value)) and isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def is_file_name(value: str) -> bool:
    """``value`` names one entry inside a directory: not empty, ``.`` or ``..``, and free of ``/``, ``\\`` and NUL."""
    return value not in ("", ".", "..") and not any(c in value for c in "/\\\0")


def require(value, path: str, kind: type, at_least=None, above=None, at_most=None):
    """``value`` if it is of ``kind`` (str, bool, list, dict, int, or float for a number) and within the bounds."""
    ok = is_int(value) if kind is int else is_number(value) if kind is float else isinstance(value, kind)
    if ok and (at_least is None or at_least <= value) and (above is None or above < value) and (
        at_most is None or value <= at_most
    ):
        return value
    bounds = "" if above is None else f" > {above}"
    bounds = bounds if at_least is None else f" >= {at_least}" if at_most is None else f" in [{at_least}, {at_most}]"
    raise ValueError(f"{path or 'document'} must be {_KIND_NAMES.get(kind, 'a finite number')}{bounds}, got {value!r}")


def require_object(value, path: str, fields: dict | None = None, known=None) -> dict:
    """``value`` if it is an object with each key of ``fields`` of its kind and, given ``known``, no other key."""
    require(value, path, dict)
    for key, kind in (fields or {}).items():
        where = f"{path}.{key}" if path else key
        if key not in value:
            raise ValueError(f"missing field: {where}")
        require(value[key], where, kind)
    for key in value if known is not None else ():
        if key not in known:
            raise ValueError(f"{path}: unknown key {key!r}; valid: {', '.join(known)}")
    return value


def require_each(columns: dict[str, list], kind: type) -> None:
    """``require`` on every value of each named column, for ``kind`` int or float.

    One set of types, and for numbers one sum, is the fast path; only the per-value check rejects.
    """
    try:
        if ({int} if kind is int else {int, float}).issuperset(map(type, chain.from_iterable(columns.values()))):
            if kind is int or isfinite(sum(map(sum, columns.values()))):
                return
    except OverflowError:  # an int too large for a float
        pass
    for path, values in columns.items():
        for value in values:
            require(value, path, kind)


def read_json(path: str | Path):
    """The JSON document in file ``path``; one that does not decode is a ``ValueError`` that names the file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested deeper than the decoder's stack
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
