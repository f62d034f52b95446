"""Partitions indexing the Qtilde and Schubert bases.

A partition is a weakly decreasing tuple of positive integers; the empty
tuple is the empty partition.  Strict partitions (pairwise distinct parts)
index the Schubert classes of the Lagrangian Grassmannian.
"""

from operator import lt


def partition(parts) -> tuple:
    """Canonicalize to a partition tuple: trailing zeros stripped.

    Raises ValueError unless the parts are weakly decreasing nonnegative
    integers.
    """
    p = tuple(parts)
    for v in p:
        if not isinstance(v, int) or v < 0:
            raise ValueError(
                f"partition parts must be nonnegative integers, got {shown(repr(v))}")
    while p and p[-1] == 0:
        p = p[:-1]
    if any(map(lt, p, p[1:])):
        raise ValueError(
            f"partition parts must be weakly decreasing, got {shown(repr(tuple(parts)))}")
    return p


def weight(parts) -> int:
    """Sum of the parts."""
    return sum(partition(parts))


def is_strict(parts) -> bool:
    """True when the nonzero parts are pairwise distinct."""
    p = partition(parts)
    return len(set(p)) == len(p)


def complement(parts, n: int) -> tuple:
    """Strict partition whose part set complements ``parts`` in {1, ..., n}."""
    p = partition(parts)
    if not is_strict(p):
        raise ValueError(f"complement needs a strict partition, got {p}")
    if p and p[0] > n:
        raise ValueError(f"part {p[0]} exceeds bound {n}")
    return tuple(sorted(set(range(1, n + 1)) - set(p), reverse=True))


def enumerate_partitions(d: int, max_part=None, strict: bool = False) -> list:
    """All partitions of ``d`` with parts bounded by ``max_part``.

    Order is descending lexicographic, e.g. (3), (2,1), (1,1,1); pass
    ``strict=True`` to keep only strict partitions.  ``max_part=None``
    means unbounded.
    """
    if d < 0:
        raise ValueError("weight must be nonnegative")
    out = []
    prefix = []

    def rec(remaining, bound):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(bound, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part - 1 if strict else part)
            prefix.pop()

    rec(d, d if max_part is None else max_part)
    return out


# error messages show an argument or a value up to this length and name
# the length of a longer one
_ECHO_LIMIT = 100


def echo(text: str) -> str:
    """An argument as an error message shows it: quoted, or by its length."""
    if len(text) <= _ECHO_LIMIT:
        return repr(text)
    return f"an argument of {len(text)} characters"


def shown(value) -> str:
    """A value as an error message shows it: whole, or by its length."""
    text = str(value)
    if len(text) <= _ECHO_LIMIT:
        return text
    return f"<{len(text)} characters>"


def parse_partition(text: str) -> tuple:
    """Parse the comma-separated syntax, e.g. "3,2,1"; "[]" is empty."""
    s = text.strip()
    if s in ("", "[]"):
        return ()
    try:
        parts = [int(tok) for tok in s.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse partition from {echo(text)}") from None
    return partition(parts)


def format_partition(parts) -> str:
    """Inverse of parse_partition: "3,2,1" for (3,2,1), "[]" for ()."""
    p = partition(parts)
    return ",".join(str(v) for v in p) if p else "[]"
