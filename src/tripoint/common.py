"""What the CLI shares with the modules of its commands.

``cli`` keeps the grammar, the process entry and the ``ratios`` and
``qnum`` handlers; ``check`` and ``branch`` hold the ``check`` and
``matrix`` commands, which only they load.  They all write numbers with
``_fmt`` and JSON with ``_json``, check a size option with
``_check_size``, and ``check`` reads the name of ``run``'s error handler,
``_BYTES_AS_GIVEN``.  None of them imports ``tripoint.cli``: under
``python -m tripoint.cli`` that module runs as ``__main__``, and an
import would compile and run it a second time.
"""

from __future__ import annotations

import math
from typing import Any

from .errors import InvalidArgument

#: Largest ``qnum --max``, ``ratios --n`` and ``matrix --n``; far above any
#: arm depth, and small enough to compute and print at once even at delta = 2,
#: where no [k] overflows.
SIZE_LIMIT = 10_000

#: The error handler that ``cli.run`` sets on stdout and stderr (see ``cli._bytes_as_given``).
_BYTES_AS_GIVEN = "tripoint.bytes_as_given"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _check_size(flag: str, value: int, least: int, even: bool = False) -> None:
    """Raise ``InvalidArgument``, naming ``flag``, when ``value`` is out of its command's range.

    The range is ``least..SIZE_LIMIT``, even numbers only where ``even``.
    The library functions keep their own checks; these word the refusal by
    the flag as given.
    """
    if value > SIZE_LIMIT:
        raise InvalidArgument(f"{flag} {value} exceeds the limit of {SIZE_LIMIT}")
    if value < least or even and value % 2:
        raise InvalidArgument(f"{flag} {value} must be {'even and ' if even else ''}>= {least}")


# ---------------------------------------------------------------------------
# JSON, written as ``json.dumps(value, allow_nan=False)`` writes it, with
# every float rounded to the 12 significant digits that the text prints;
# importing the ``json`` package would cost start-up more than all of this

#: The escapes of ``json.dumps`` that are not ``\uXXXX``.
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape(c: str) -> str:
    """The character ``c`` inside a JSON string, in ASCII as ``json.dumps`` writes it."""
    if c in _ESCAPES:
        return _ESCAPES[c]
    if " " <= c <= "~":
        return c
    code = ord(c)
    if code > 0xFFFF:  # a UTF-16 surrogate pair
        code -= 0x10000
        return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"
    return f"\\u{code:04x}"  # a lone surrogate too, such as \udcff from a name that is not UTF-8


def _json_str(s: str) -> str:
    """``s`` as a JSON string."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    return '"' + "".join(map(_escape, s)) + '"'


def _json_num(x: float) -> str:
    """``x`` rounded to 12 significant digits as a JSON number; NaN and infinities raise ``ValueError``."""
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return repr(float(f"{x:.12g}"))


def _json(value: Any) -> str:
    """``value``, of None, ints, floats, strings, lists and dicts keyed by strings, as JSON."""
    if isinstance(value, float):
        return _json_num(value)
    if type(value) is int:
        return repr(value)
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_json_str(key)}: {_json(item)}" for key, item in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_json, value)) + "]"
    raise TypeError(f"{type(value).__name__} is not written as JSON")
