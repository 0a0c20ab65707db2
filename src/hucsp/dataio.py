"""Reading, writing, generating, and validating quantitative sequence data.

Database file, one sequence per line; itemsets end with -1, lines with -2:

    b:2 f:4 -1 a:2 e:2 -1 c:2 e:1 -1 -2

A parsed line is one flat QSequence that mirrors its tokens: a QItem for
each q-item and a None for each -1.

External-utility file, one item per line:

    b 1

Item ids are assigned by first appearance in the external-utility file, and
itemsets in the database file must list items in ascending id order.  An
item name cannot contain ':', which separates name from quantity in the
database file, and cannot be -1 or -2, which a result line could not tell
from the terminators.  Results are written one pattern per line, itemsets
separated by -1:

    a -1 c -1 #UTIL: 36

All files are UTF-8 with LF line endings; serialization is byte-deterministic.
"""

from __future__ import annotations

import math
import random
import re
import sys
from typing import Iterable, NamedTuple

from .core import (
    ExternalUtilityTable,
    QItem,
    QSequence,
    QSequenceDatabase,
    ResultSet,
    collector_paused,
    quoted,
)

_TOKEN = re.compile(r"\S+")
# Quantities and weights are ASCII digits only; int() alone would also take
# a sign, underscores and digits of other scripts.
_DIGITS = "0123456789"


class ParseError(ValueError):
    """Text rejected at a 1-based line and column.  Parsing keeps no positions:
    the column is found here, at token k of the line's text or just past the last."""

    def __init__(self, message: str, line: int, text: str, k: int):
        spans = [m.span() for m in _TOKEN.finditer(text)]
        column = spans[k][0] + 1 if k < len(spans) else spans[-1][1] + 1
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _count_error(count: str, what: str, line: int, text: str, k: int) -> ParseError:
    """The ParseError for a quantity or weight token that is not a count.

    A count is ASCII digits that int() parses.  Python refuses to parse ints
    longer than sys.get_int_max_str_digits() digits (4,300 by default); such
    a token, like any long malformed one, is reported by its length and a
    short prefix, not echoed whole.
    """
    limit = sys.get_int_max_str_digits()
    if not count.strip(_DIGITS) and 0 < limit < len(count):
        return ParseError(
            f"{what} {count[:12]}... has {len(count)} digits, above the limit of {limit}",
            line,
            text,
            k,
        )
    return ParseError(f"malformed {what} {quoted(count)}", line, text, k)


def parse_utility_table(text: str) -> tuple[tuple[str, ...], ExternalUtilityTable]:
    """Parse 'name weight' lines; ids follow first-appearance order."""
    names: list[str] = []
    weights: list[int] = []
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 2:
            raise ParseError("expected 'name weight'", lineno, line, 2 if len(tokens) > 2 else 0)
        name, weight_text = tokens
        if ":" in name:
            raise ParseError(f"item name {name!r} contains ':'", lineno, line, 0)
        if name in ("-1", "-2"):
            raise ParseError(f"item name {name!r} is reserved as a terminator", lineno, line, 0)
        if name in seen:
            raise ParseError(f"duplicate item name {name!r}", lineno, line, 0)
        try:
            # strip() leaves a non-digit wherever the token has one.
            if weight_text.strip(_DIGITS):
                raise ValueError
            weight = int(weight_text)
        except ValueError:
            raise _count_error(weight_text, "weight", lineno, line, 1) from None
        if weight < 1:
            raise ParseError("external utility must be >= 1", lineno, line, 1)
        seen.add(name)
        names.append(name)
        weights.append(weight)
    return tuple(names), ExternalUtilityTable(tuple(weights))


@collector_paused()
def parse_database(db_text: str, eut_text: str) -> tuple[QSequenceDatabase, ExternalUtilityTable]:
    """Parse a database file against its external-utility file.

    Each distinct q-item token is read once: equal tokens share one QItem.
    Each line becomes one flat QSequence: every token's QItem, and a None
    for each -1.
    """
    names, eut = parse_utility_table(eut_text)
    ids = {name: i for i, name in enumerate(names)}
    qitems: dict[str, QItem] = {}
    sequences: list[QSequence] = []
    for lineno, line in enumerate(db_text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        flat: list[QItem | None] = []
        last = -1  # id of the open itemset's last item, -1 before its first; ids start at 0
        for k, token in enumerate(tokens):
            qitem = qitems.get(token)
            if qitem is None:
                if token == "-2":
                    if last >= 0:
                        raise ParseError("itemset not closed before -2", lineno, line, k)
                    if not flat:
                        raise ParseError("empty sequence", lineno, line, k)
                    if k + 1 < len(tokens):
                        raise ParseError("content after end of sequence", lineno, line, k + 1)
                    continue
                if token == "-1":
                    if last < 0:
                        raise ParseError("empty itemset", lineno, line, k)
                    flat.append(None)
                    last = -1
                    continue
                name, sep, quantity_text = token.partition(":")
                if not sep or not name or not quantity_text:
                    raise ParseError(f"malformed token {token!r}", lineno, line, k)
                item = ids.get(name)
                if item is None:
                    raise ParseError(f"unknown item {name!r}", lineno, line, k)
                try:
                    if quantity_text.strip(_DIGITS):
                        raise ValueError
                    quantity = int(quantity_text)
                except ValueError:
                    raise _count_error(quantity_text, "quantity", lineno, line, k) from None
                if quantity < 1:
                    raise ParseError("quantity must be >= 1", lineno, line, k)
                qitem = qitems[token] = QItem(item, quantity)
            if qitem.item <= last:
                if qitem.item == last:
                    raise ParseError(f"duplicate item {names[last]!r} in itemset", lineno, line, k)
                raise ParseError("items out of ascending id order", lineno, line, k)
            last = qitem.item
            flat.append(qitem)
        if tokens[-1] != "-2":
            raise ParseError("sequence not terminated by -2", lineno, line, len(tokens))
        sequences.append(QSequence(flat))
    return QSequenceDatabase(tuple(sequences), names), eut


def serialize_database(db: QSequenceDatabase, eut: ExternalUtilityTable) -> tuple[str, str]:
    """Render (database text, utility-table text); inverse of parse_database."""
    if len(eut.weights) != len(db.names):
        raise ValueError("names and weights must be the same length")
    eut_lines = [f"{name} {weight}" for name, weight in zip(db.names, eut.weights)]
    db_lines = []
    for seq in db.sequences:
        parts = ["-1" if q is None else f"{db.names[q.item]}:{q.quantity}" for q in seq]
        parts.append("-2")
        db_lines.append(" ".join(parts))
    return "".join(line + "\n" for line in db_lines), "".join(line + "\n" for line in eut_lines)


def format_pattern(pattern, names: tuple[str, ...]) -> str:
    """Render a pattern as itemset tokens, each itemset closed by -1."""
    parts: list[str] = []
    for itemset in pattern:
        parts.extend(names[item] for item in itemset)
        parts.append("-1")
    return " ".join(parts)


def serialize_results(results: ResultSet, names: tuple[str, ...]) -> str:
    """Render (pattern, utility) pairs one per line, in the order given."""
    return "".join(
        f"{format_pattern(pattern, names)} #UTIL: {utility}\n" for pattern, utility in results
    )


class _GeneratorFields(NamedTuple):
    sequence_count: int
    distinct_items: int = 100
    max_itemsets_per_seq: int = 8
    max_items_per_itemset: int = 4
    max_quantity: int = 5
    max_weight: int = 5
    seed: int = 1


class GeneratorParams(_GeneratorFields):
    """The shape of a synthetic database, checked whenever one is built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> GeneratorParams:
        params = super().__new__(cls, *args, **kwargs)
        for name, value in zip(params._fields, params):
            if name != "seed" and value < 1:
                raise ValueError(f"{name} must be >= 1")
        return params

    @classmethod
    def _make(cls, fields: Iterable) -> GeneratorParams:
        # _replace builds through here, so a replaced field is checked too.
        return cls(*fields)


def generate_synthetic(params: GeneratorParams) -> tuple[QSequenceDatabase, ExternalUtilityTable]:
    """Draw a random database; same params give byte-identical output."""
    rng = random.Random(params.seed)
    names = tuple(f"i{k}" for k in range(params.distinct_items))
    # Weights are drawn before any sequence so sizing params do not shift them.
    weights = tuple(rng.randint(1, params.max_weight) for _ in names)
    top_size = min(params.max_items_per_itemset, params.distinct_items)
    shared: dict[QItem, QItem] = {}  # one object per (item, quantity), as the parser keeps
    sequences = []
    for _ in range(params.sequence_count):
        qitems: list[QItem | None] = []
        for _ in range(rng.randint(1, params.max_itemsets_per_seq)):
            size = rng.randint(1, top_size)
            members = sorted(rng.sample(range(params.distinct_items), size))
            itemset = (QItem(i, rng.randint(1, params.max_quantity)) for i in members)
            qitems.extend(shared.setdefault(q, q) for q in itemset)
            qitems.append(None)
        sequences.append(QSequence(qitems))
    return QSequenceDatabase(tuple(sequences), names), ExternalUtilityTable(weights)


def validate(db: QSequenceDatabase, eut: ExternalUtilityTable) -> list[str]:
    """Structural checks; returns one message per violation, empty when clean.
    Ids, quantities and weights must be exactly int: no float, and no bool."""
    problems: list[str] = []
    for i, weight in enumerate(eut.weights):
        if type(weight) is not int:
            problems.append(f"item {i}: external utility must be an int, got {type(weight).__name__}")
        elif weight < 1:
            problems.append(f"item {i}: external utility must be >= 1, got {weight}")
    known = len(eut.weights)
    for sid, seq in enumerate(db.sequences):
        if not seq:
            problems.append(f"sequence {sid}: empty sequence")
        # last is the id of the open itemset's last item, None before its first.
        pos, last = 1, None
        for qitem in seq:
            if qitem is None:
                if last is None:
                    problems.append(f"sequence {sid}, position {pos}: empty itemset")
                pos, last = pos + 1, None
                continue
            item, quantity = qitem
            if type(item) is not int or type(quantity) is not int:
                problems.append(
                    f"sequence {sid}, position {pos}: item id and quantity must be ints, "
                    f"got {type(item).__name__} and {type(quantity).__name__}"
                )
                # It fills its itemset but is ordered against neither neighbour.
                last = -math.inf
                continue
            if last is not None and item <= last:
                problems.append(f"sequence {sid}, position {pos}: items not strictly ascending")
            last = item
            if quantity < 1:
                problems.append(f"sequence {sid}, position {pos}: quantity must be >= 1")
            if item < 0 or item >= known:
                problems.append(
                    f"sequence {sid}, position {pos}: missing external utility for item {item}"
                )
        if last is not None:
            problems.append(f"sequence {sid}, position {pos}: itemset not closed")
    return problems
