"""Parsing, serialization, generation, and validation."""

from __future__ import annotations

import ast
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hucsp
from conftest import (
    A,
    B,
    C,
    E,
    F,
    RUNNING_DB_TEXT,
    RUNNING_EUT_TEXT,
    databases_where_guip_leaves_a_gap,
    q_databases,
)
from hucsp.core import ExternalUtilityTable, QItem, QSequence, QSequenceDatabase, db_utility
from hucsp.dataio import (
    GeneratorParams,
    ParseError,
    format_pattern,
    generate_synthetic,
    parse_database,
    parse_utility_table,
    serialize_database,
    serialize_results,
    validate,
)


class TestParseUtilityTable:
    def test_ids_follow_first_appearance(self):
        names, eut = parse_utility_table("z 4\nm 1\nq 9\n")
        assert names == ("z", "m", "q")
        assert eut.weights == (4, 1, 9)

    def test_running_example(self):
        names, eut = parse_utility_table(RUNNING_EUT_TEXT)
        assert names == ("a", "b", "c", "d", "e", "f")
        assert eut.weights == (3, 2, 3, 2, 1, 1)

    def test_blank_lines_skipped(self):
        names, _ = parse_utility_table("\na 1\n\nb 2\n\n")
        assert names == ("a", "b")

    @pytest.mark.parametrize(
        "text,line,column",
        [
            ("a 1\na 2\n", 2, 1),  # duplicate name
            ("a 1\nb x\n", 2, 3),  # malformed weight
            ("a 0\n", 1, 3),  # weight below 1
            ("a 1 extra\n", 1, 5),  # trailing token
            ("a\n", 1, 1),  # missing weight
            ("a 1\n  b:c 2\n", 2, 3),  # ':' in a name
            ("-1 3\n", 1, 1),  # the itemset terminator as a name
            ("a 1\n\t-2 4\n", 2, 2),  # the sequence terminator as a name
        ],
    )
    def test_rejects(self, text, line, column):
        with pytest.raises(ParseError) as err:
            parse_utility_table(text)
        assert err.value.line == line
        assert err.value.column == column


class TestParseDatabase:
    def test_running_example(self, running):
        db, eut = running
        assert len(db.sequences) == 5
        assert db.names == ("a", "b", "c", "d", "e", "f")
        assert db_utility(db, eut) == 106
        assert db.sequences[0].itemsets[0] == (QItem(B, 2), QItem(F, 4))

    def test_empty_text_is_empty_database(self):
        db, eut = parse_database("", "")
        assert db.sequences == () and db.names == () and eut.weights == ()

    def test_blank_lines_and_extra_whitespace(self):
        db, _ = parse_database("\n  a:1  -1  -2  \n\n", "a 2\n")
        assert len(db.sequences) == 1
        assert db.sequences[0].itemsets == ((QItem(0, 1),),)

    @pytest.mark.parametrize(
        "line,lineno,column",
        [
            ("a:2 a:3 -1 -2", 1, 5),  # duplicate item in itemset
            ("b:1 a:1 -1 -2", 1, 5),  # descending ids
            ("g:1 -1 -2", 1, 1),  # unknown item
            ("a:0 -1 -2", 1, 1),  # quantity below 1
            ("a:x -1 -2", 1, 1),  # malformed quantity
            ("a -1 -2", 1, 1),  # missing colon
            (":2 -1 -2", 1, 1),  # missing name
            ("a: -1 -2", 1, 1),  # missing quantity
            ("-1 a:1 -1 -2", 1, 1),  # empty itemset
            ("a:1 -2", 1, 5),  # itemset not closed
            ("-2", 1, 1),  # empty sequence
            ("a:1 -1 -2 b:1", 1, 11),  # content after terminator
            ("a:1 -1", 1, 7),  # missing terminator
            ("a:1 -1 -2\nb:1 c:2 -1", 2, 11),  # error on second line
            ("a:2 -1 a:2 a:2 -1 -2", 1, 12),  # duplicate of a token read before
            ("b:1 -1 b:1 a:1 -1 -2", 1, 12),  # descending after a token read before
        ],
    )
    def test_rejects_with_position(self, line, lineno, column):
        with pytest.raises(ParseError) as err:
            parse_database(line + "\n", "a 3\nb 2\nc 3\n")
        assert (err.value.line, err.value.column) == (lineno, column)

    def test_equal_tokens_share_one_qitem(self):
        db, _ = parse_database("a:2 b:1 -1 a:2 -1 -2\nb:1 -1 a:2 b:3 -1 -2\n", "a 3\nb 2\n")
        first, second = db.sequences
        assert first.itemsets[0][0] is first.itemsets[1][0] is second.itemsets[1][0]
        qitems = [q for seq in db.sequences for _, q in seq.iter_slots()]
        assert len(qitems) == 6
        assert len({id(q) for q in qitems}) == 3  # a:2, b:1 and b:3

    def test_error_message_carries_position(self):
        with pytest.raises(ParseError, match=r"line 1, column 5"):
            parse_database("a:2 a:3 -1 -2\n", "a 3\n")


class TestCountsAreAsciiDigits:
    # int() takes each of these; the file format does not define them.
    UNDEFINED = ["1_0", "+3", "\u0663", "\uff13"]  # ٣ Arabic-Indic, ３ fullwidth

    @pytest.mark.parametrize("text", UNDEFINED)
    def test_quantity(self, text):
        with pytest.raises(ParseError, match=re.escape(f"malformed quantity {text!r}")) as err:
            parse_database(f"a:1 b:{text} -1 -2\n", "a 3\nb 2\n")
        assert (err.value.line, err.value.column) == (1, 5)

    @pytest.mark.parametrize("text", UNDEFINED)
    def test_weight(self, text):
        with pytest.raises(ParseError, match=re.escape(f"malformed weight {text!r}")) as err:
            parse_utility_table(f"a 1\nb {text}\n")
        assert (err.value.line, err.value.column) == (2, 3)


class TestIntegerDigitLimit:
    LIMIT = sys.get_int_max_str_digits()

    def test_quantity_at_the_limit_parses(self):
        db, _ = parse_database("a:" + "9" * self.LIMIT + " -1 -2\n", "a 1\n")
        assert db.sequences[0].itemsets[0][0].quantity == 10**self.LIMIT - 1

    def test_over_long_quantity_names_its_length(self):
        with pytest.raises(ParseError) as err:
            parse_database("a:1 -1 -2\na:1 b:" + "7" * 5000 + " -1 -2\n", "a 3\nb 2\n")
        assert (err.value.line, err.value.column) == (2, 5)
        message = str(err.value)
        assert f"quantity 777777777777... has 5000 digits, above the limit of {self.LIMIT}" in message
        assert len(message) < 120

    def test_over_long_weight_names_its_length(self):
        with pytest.raises(ParseError) as err:
            parse_utility_table("a 1\nb " + "1" * 5000 + "\n")
        assert (err.value.line, err.value.column) == (2, 3)
        assert "weight 111111111111... has 5000 digits" in str(err.value)

    def test_over_long_garbage_is_still_malformed(self):
        with pytest.raises(ParseError) as err:
            parse_database("a:" + "9" * 5000 + "x -1 -2\n", "a 1\n")
        assert str(err.value).endswith("malformed quantity '999999999999'... (5001 characters)")


class TestSerializeDatabase:
    def test_round_trips_running_example(self, running):
        db, eut = running
        assert serialize_database(db, eut) == (RUNNING_DB_TEXT, RUNNING_EUT_TEXT)

    def test_refuses_names_and_weights_of_different_lengths(self, running):
        db, _ = running
        with pytest.raises(ValueError, match="names and weights must be the same length"):
            serialize_database(db, parse_utility_table("a 1\n")[1])

    @given(st.one_of(q_databases(), databases_where_guip_leaves_a_gap()))
    def test_round_trips_random_databases(self, dbeut):
        texts = serialize_database(*dbeut)
        assert parse_database(*texts) == dbeut
        assert serialize_database(*parse_database(*texts)) == texts


class TestSerializeResults:
    def test_worked_lines(self, running):
        db, _ = running
        text = serialize_results([(((B, F),), 27), (((A,), (C,)), 36)], db.names)
        assert text == "b f -1 #UTIL: 27\na -1 c -1 #UTIL: 36\n"

    def test_single_itemset_pattern(self, running):
        db, _ = running
        assert serialize_results([(((A,),), 24)], db.names) == "a -1 #UTIL: 24\n"

    def test_empty(self, running):
        db, _ = running
        assert serialize_results([], db.names) == ""

    def test_format_pattern(self, running):
        db, _ = running
        assert format_pattern(((A,), (C, E)), db.names) == "a -1 c e -1"


class TestGenerator:
    def test_deterministic(self):
        params = GeneratorParams(sequence_count=50, seed=7)
        assert generate_synthetic(params) == generate_synthetic(params)
        other = GeneratorParams(sequence_count=50, seed=8)
        assert generate_synthetic(params) != generate_synthetic(other)

    def test_respects_caps(self):
        params = GeneratorParams(
            sequence_count=40,
            distinct_items=9,
            max_itemsets_per_seq=5,
            max_items_per_itemset=3,
            max_quantity=4,
            max_weight=2,
            seed=3,
        )
        db, eut = generate_synthetic(params)
        assert len(db.sequences) == 40
        assert len(eut.weights) == 9 and all(1 <= w <= 2 for w in eut.weights)
        for seq in db.sequences:
            itemsets = seq.itemsets
            assert 1 <= len(itemsets) <= 5
            for itemset in itemsets:
                assert 1 <= len(itemset) <= 3
                assert all(1 <= q.quantity <= 4 for q in itemset)
                assert list(itemset) == sorted(itemset, key=lambda q: q.item)

    def test_single_item_universe(self):
        db, _ = generate_synthetic(GeneratorParams(sequence_count=5, distinct_items=1, seed=2))
        for seq in db.sequences:
            for itemset in seq.itemsets:
                assert len(itemset) == 1 and itemset[0].item == 0

    def test_generated_databases_validate_and_round_trip(self):
        db, eut = generate_synthetic(GeneratorParams(sequence_count=1000, seed=42))
        assert validate(db, eut) == []
        db_text, eut_text = serialize_database(db, eut)
        assert parse_database(db_text, eut_text) == (db, eut)

    def test_equal_qitems_are_one_object(self):
        params = GeneratorParams(sequence_count=200, distinct_items=5, max_quantity=2, seed=4)
        db, _ = generate_synthetic(params)
        qitems = [q for seq in db.sequences for _, q in seq.iter_slots()]
        assert len({id(q) for q in qitems}) == len(set(qitems)) <= 10

    @pytest.mark.parametrize(
        "field",
        [
            "sequence_count",
            "distinct_items",
            "max_itemsets_per_seq",
            "max_items_per_itemset",
            "max_quantity",
            "max_weight",
        ],
    )
    def test_rejects_non_positive_params(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be >= 1$"):
            GeneratorParams(**{**dict(sequence_count=1), field: 0})
        with pytest.raises(ValueError, match=f"^{field} must be >= 1$"):
            GeneratorParams(sequence_count=1)._replace(**{field: 0})

    def test_params_are_immutable_and_any_seed_goes(self):
        params = GeneratorParams(sequence_count=3, seed=0)
        assert params._replace(seed=-5).seed == -5
        with pytest.raises(AttributeError):
            params.seed = 2
        with pytest.raises(AttributeError):
            del params.sequence_count


class TestValidate:
    def test_clean(self, running):
        db, eut = running
        assert validate(db, eut) == []

    def _db(self, *itemsets):
        return QSequenceDatabase((QSequence.from_itemsets(itemsets),), ("a", "b", "c"))

    def test_reports_violations(self):
        _, eut = parse_utility_table("a 1\nb 1\nc 1\n")
        assert validate(self._db((QItem(0, 0),)), eut) == [
            "sequence 0, position 1: quantity must be >= 1"
        ]
        assert "items not strictly ascending" in validate(
            self._db((QItem(1, 1), QItem(0, 1))), eut
        )[0]
        assert "missing external utility for item 9" in validate(
            self._db((QItem(9, 1),)), eut
        )[0]
        assert "empty itemset" in validate(self._db(()), eut)[0]
        # itemset k is reported at position k
        assert validate(self._db((QItem(0, 1),), (QItem(1, 0),), (QItem(9, 1),)), eut) == [
            "sequence 0, position 2: quantity must be >= 1",
            "sequence 0, position 3: missing external utility for item 9",
        ]

    def test_reports_an_unclosed_last_itemset(self):
        # A None closes each itemset, the last one too, as -1 does in the file.
        _, eut = parse_utility_table("a 1\nb 1\nc 1\n")
        sequences = (
            QSequence((QItem(0, 2), None, QItem(1, 3))),
            QSequence((QItem(0, 1), QItem(2, 1))),
            QSequence((QItem(0, 1), None)),
            QSequence((QItem(1, 0),)),
        )
        assert validate(QSequenceDatabase(sequences, ("a", "b", "c")), eut) == [
            "sequence 0, position 2: itemset not closed",
            "sequence 1, position 1: itemset not closed",
            "sequence 3, position 1: quantity must be >= 1",
            "sequence 3, position 1: itemset not closed",
        ]

    def test_reports_values_that_are_not_ints(self):
        # Exactly int: a float, a bool or a str is refused wherever it stands.
        eut = ExternalUtilityTable((1, 1, 1))
        assert validate(self._db((QItem(0, 2.5), QItem(1.0, 1), QItem(True, 1))), eut) == [
            "sequence 0, position 1: item id and quantity must be ints, got int and float",
            "sequence 0, position 1: item id and quantity must be ints, got float and int",
            "sequence 0, position 1: item id and quantity must be ints, got bool and int",
        ]
        # Such a q-item fills its itemset but is ordered against neither neighbour.
        assert validate(self._db((QItem("b", 1),), (QItem(2, 1), QItem("a", 1), QItem(1, 1))), eut) == [
            "sequence 0, position 1: item id and quantity must be ints, got str and int",
            "sequence 0, position 2: item id and quantity must be ints, got str and int",
        ]
        assert validate(self._db((QItem(0, 1),)), ExternalUtilityTable((1.0, True, 0))) == [
            "item 0: external utility must be an int, got float",
            "item 1: external utility must be an int, got bool",
            "item 2: external utility must be >= 1, got 0",
        ]

    def test_reports_an_empty_sequence(self):
        # The parser refuses the line "-2" that serialize_database would write for it.
        _, eut = parse_utility_table("a 1\nb 1\nc 1\n")
        sequences = (QSequence.from_itemsets(((QItem(0, 1),),)), QSequence.from_itemsets(()))
        db = QSequenceDatabase(sequences, ("a", "b", "c"))
        assert validate(db, eut) == ["sequence 1: empty sequence"]

    def test_reports_bad_weights(self):
        db = self._db((QItem(0, 1),))
        from hucsp.core import ExternalUtilityTable

        assert validate(db, ExternalUtilityTable((0, 1, 1))) == [
            "item 0: external utility must be >= 1, got 0"
        ]


# The format's own characters, plus characters that str.splitlines, the
# tokenizer or int() treat specially: \r, \x0b and \x1c end a line, and
# int() would take the Arabic-Indic digit, the underscore and the sign.
_FUZZ_ALPHABET = "ab:-012 \t\n\r\x0b\x1c\u0663_+"
# Lines of whole tokens from that alphabet reach the errors of a database
# line, and a valid utility table lets the database be read at all; a
# branch repeated in one_of is drawn more often.
_FUZZ_WORDS = st.sampled_from(("a:1", "b:2", "a:0", "b", "-1", "-2", "a:1 -1", "a:1 -1 -2"))
_FUZZ_LINES = st.lists(
    st.tuples(
        st.one_of(
            _FUZZ_WORDS, _FUZZ_WORDS, _FUZZ_WORDS, st.text("ab:-012\u0663_+", min_size=1, max_size=4)
        ),
        st.sampled_from((" ", "\t", "\n", "\r\n")),
    ),
    max_size=12,
).map(lambda pairs: "".join(word + sep for word, sep in pairs))
_FUZZ_TABLES = st.sampled_from(("a 1\nb 2\n", "b 3\na 1\n"))
# Lines of whole sequences, joined by the alphabet's line ends, let the
# round trip see databases that parse; which itemsets are in ascending id
# order depends on the table drawn with them.
_FUZZ_ITEMSETS = st.sampled_from(("a:1", "b:2", "a:1 b:2", "b:3 a:1", "a:12 b:1"))
_FUZZ_SEQUENCES = st.lists(
    st.tuples(
        st.lists(_FUZZ_ITEMSETS, min_size=1, max_size=3).map(lambda sets: " -1 ".join(sets)),
        st.sampled_from(("\n", "\r\n", "\r", "\x0b", "\x1c")),
    ),
    min_size=1,
    max_size=4,
).map(lambda pairs: "".join(f"{sets} -1 -2{end}" for sets, end in pairs))
# A token or name quoted in a ParseError message; a long one is shown as a
# prefix and its length.
_QUOTED = re.compile(r"'([^']*)'(?:\.\.\. \((\d+) characters\))?")


class TestParserFuzz:
    @given(
        st.one_of(st.text(_FUZZ_ALPHABET, max_size=60), _FUZZ_SEQUENCES),
        st.one_of(_FUZZ_TABLES, st.text(_FUZZ_ALPHABET, max_size=30)),
    )
    def test_text_is_refused_at_a_place_or_round_trips(self, db_text, eut_text):
        try:
            db, eut = parse_database(db_text, eut_text)
        except ParseError as err:
            assert err.line >= 1 and err.column >= 1
            return
        assert parse_database(*serialize_database(db, eut)) == (db, eut)

    @settings(max_examples=500)
    @given(
        st.one_of(st.text(_FUZZ_ALPHABET, max_size=60), _FUZZ_LINES, _FUZZ_LINES),
        st.one_of(_FUZZ_TABLES, _FUZZ_TABLES, st.text(_FUZZ_ALPHABET, max_size=30)),
    )
    def test_error_column_lands_where_the_message_says(self, db_text, eut_text):
        try:
            parse_utility_table(eut_text)
            failing_text = db_text
        except ParseError:
            failing_text = eut_text
        try:
            parse_database(db_text, eut_text)
            return
        except ParseError as raised:
            err = raised
        line = failing_text.splitlines()[err.line - 1]
        message = str(err).removeprefix(f"line {err.line}, column {err.column}: ")
        starts = [m.start() + 1 for m in re.finditer(r"\S+", line)]
        tokens = line.split()
        if message == "sequence not terminated by -2":
            assert err.column == starts[-1] + len(tokens[-1])
            return
        k = starts.index(err.column)
        token = tokens[k]
        if message in ("itemset not closed before -2", "empty sequence"):
            assert token == "-2"
        elif message == "empty itemset":
            assert token == "-1"
        elif message == "content after end of sequence":
            assert k > 0 and tokens[k - 1] == "-2"
        quoted = _QUOTED.search(message)
        if quoted and message != "expected 'name weight'":
            name, _, quantity = token.partition(":")
            shown, length = quoted.group(1), quoted.group(2)
            if length is None:
                assert shown in (token, name, quantity)
            else:
                assert any(
                    part.startswith(shown) and len(part) == int(length)
                    for part in (token, name, quantity)
                )

    @settings(max_examples=300)
    @given(
        st.one_of(st.text(_FUZZ_ALPHABET, max_size=60), _FUZZ_LINES, _FUZZ_SEQUENCES),
        _FUZZ_TABLES,
    )
    def test_a_text_parses_as_its_lines_do(self, db_text, eut_text):
        # Q-items are shared across lines, so no line may read differently
        # for the lines before it.
        def located(err):
            message = str(err).removeprefix(f"line {err.line}, column {err.column}: ")
            return err.line, err.column, message

        sequences, failure = [], None
        for lineno, line in enumerate(db_text.splitlines(), start=1):
            try:
                sequences.extend(parse_database(line, eut_text)[0].sequences)
            except ParseError as err:
                failure = (lineno, *located(err)[1:])
                break
        try:
            db, _ = parse_database(db_text, eut_text)
        except ParseError as err:
            assert located(err) == failure
            return
        assert failure is None
        assert db.sequences == tuple(sequences)

    def test_mutated_inputs_never_crash(self):
        rng = random.Random(13)
        alphabet = "abcdefg:123 -\n"
        for _ in range(300):
            text = list(RUNNING_DB_TEXT)
            for _ in range(rng.randint(1, 4)):
                op = rng.randrange(3)
                pos = rng.randrange(len(text))
                if op == 0:
                    text[pos] = rng.choice(alphabet)
                elif op == 1:
                    text.insert(pos, rng.choice(alphabet))
                else:
                    del text[pos]
            try:
                parse_database("".join(text), RUNNING_EUT_TEXT)
            except ParseError:
                pass  # rejection with a located error is the expected outcome


def _nested_validate(db, eut):
    """validate as it read the nested form, one loop per itemset: the reference for the flat walk.

    The nested view drops an unclosed tail, so the tail is read as one more itemset.
    """
    problems = []
    for i, weight in enumerate(eut.weights):
        if type(weight) is not int:
            problems.append(f"item {i}: external utility must be an int, got {type(weight).__name__}")
        elif weight < 1:
            problems.append(f"item {i}: external utility must be >= 1, got {weight}")
    for sid, seq in enumerate(db.sequences):
        itemsets = seq.itemsets
        tail = seq[sum(len(itemset) + 1 for itemset in itemsets) :]
        if not itemsets and not tail:
            problems.append(f"sequence {sid}: empty sequence")
        for pos, itemset in enumerate((*itemsets, tail) if tail else itemsets, start=1):
            if not itemset:
                problems.append(f"sequence {sid}, position {pos}: empty itemset")
            ints = [type(q.item) is int and type(q.quantity) is int for q in itemset]
            for k, qitem in enumerate(itemset):
                if not ints[k]:
                    problems.append(
                        f"sequence {sid}, position {pos}: item id and quantity must be ints, "
                        f"got {type(qitem.item).__name__} and {type(qitem.quantity).__name__}"
                    )
                    continue
                if k and ints[k - 1] and qitem.item <= itemset[k - 1].item:
                    problems.append(f"sequence {sid}, position {pos}: items not strictly ascending")
                if qitem.quantity < 1:
                    problems.append(f"sequence {sid}, position {pos}: quantity must be >= 1")
                if qitem.item < 0 or qitem.item >= len(eut.weights):
                    problems.append(
                        f"sequence {sid}, position {pos}: missing external utility for item {qitem.item}"
                    )
        if tail:
            problems.append(f"sequence {sid}, position {len(itemsets) + 1}: itemset not closed")
    return problems


# Databases that break validate's rules: empty itemsets and sequences, an
# unclosed last itemset, negative and unknown ids, ids out of order or
# repeated, zero quantities and weights, and ids, quantities and weights
# that are not ints.
_NOT_INTS = st.sampled_from((1.0, True))
_RAW_QITEMS = st.builds(QItem, st.integers(-2, 4) | _NOT_INTS, st.integers(0, 2) | _NOT_INTS)
_RAW_SEQUENCES = st.builds(
    lambda itemsets, tail: QSequence((*QSequence.from_itemsets(itemsets), *tail)),
    st.lists(st.lists(_RAW_QITEMS, max_size=3), max_size=4),
    st.lists(_RAW_QITEMS, max_size=2),
)
_RAW_DATABASES = st.tuples(
    st.lists(_RAW_SEQUENCES, min_size=1, max_size=4).map(
        lambda seqs: QSequenceDatabase(tuple(seqs), ("a", "b", "c"))
    ),
    st.lists(st.integers(0, 3) | _NOT_INTS, min_size=1, max_size=3).map(
        lambda weights: ExternalUtilityTable(tuple(weights))
    ),
)
_VALID_DATABASES = st.one_of(q_databases(), databases_where_guip_leaves_a_gap())


class TestFlatSequences:
    """A QSequence is one flat tuple of q-items, a None closing each itemset."""

    @given(st.one_of(_VALID_DATABASES, _RAW_DATABASES))
    def test_nested_form_round_trips(self, dbeut):
        db, _ = dbeut
        for seq in db.sequences:
            itemsets = seq.itemsets
            twin = QSequence.from_itemsets(itemsets)
            # The nested view holds the closed itemsets; an unclosed tail is left out.
            tail = seq[len(twin) :]
            assert twin + tail == seq and None not in tail
            if not tail:
                assert hash(twin) == hash(seq)
            assert QSequence(tuple(seq)) == seq and type(seq) is QSequence
            assert seq.count(None) == len(itemsets)
            assert list(seq.iter_slots()) == [
                (pos, q) for pos, itemset in enumerate((*itemsets, tail), start=1) for q in itemset
            ]

    @given(st.one_of(_VALID_DATABASES, _RAW_DATABASES))
    def test_validate_agrees_with_the_nested_walk(self, dbeut):
        assert validate(*dbeut) == _nested_validate(*dbeut)

    def test_validate_on_each_fault(self):
        eut = ExternalUtilityTable((1, 1, 1))
        db = QSequenceDatabase(
            (
                QSequence.from_itemsets(((QItem(0, 1),), (), (QItem(1, 1),))),
                QSequence.from_itemsets(()),
                # A first item of -1 is an item, not "no item yet", and no
                # first item is out of order.
                QSequence.from_itemsets(((QItem(-1, 1),), (QItem(-2, 1), QItem(0, 1)))),
            ),
            ("a", "b", "c"),
        )
        expected = [
            "sequence 0, position 2: empty itemset",
            "sequence 1: empty sequence",
            "sequence 2, position 1: missing external utility for item -1",
            "sequence 2, position 2: missing external utility for item -2",
        ]
        assert validate(db, eut) == _nested_validate(db, eut) == expected

    def test_the_mine_path_never_rebuilds_itemsets(self):
        package = Path(hucsp.__file__).parent
        walks = {
            "dataio.py": "validate",
            "core.py": "db_utility",
            "bounds.py": "swu_per_item",
            "indexes.py": "build_sil",
        }
        reads = []
        for module, name in walks.items():
            tree = ast.parse((package / module).read_text("utf-8"))
            (function,) = [
                node
                for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name
            ]
            # The names each walk binds to a sequence of db.sequences.
            seqs = {
                (node.target.elts[-1] if isinstance(node.target, ast.Tuple) else node.target).id
                for node in ast.walk(function)
                if isinstance(node, ast.For)
                and any(isinstance(n, ast.Attribute) and n.attr == "sequences" for n in ast.walk(node.iter))
            }
            assert seqs, name
            reads += [
                (name, node.lineno)
                for node in ast.walk(function)
                if isinstance(node, ast.Attribute) and node.attr == "itemsets"
            ]
            # reversed() over a tuple subclass is several times slower than over
            # a tuple; a reverse slice walks at tuple speed.
            reads += [
                (name, node.lineno)
                for node in ast.walk(function)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "reversed"
                and any(isinstance(n, ast.Name) and n.id in seqs for a in node.args for n in ast.walk(a))
            ]
        assert reads == []

    def test_a_parsed_sequence_holds_its_qitems_itself(self):
        # sys.getsizeof counts the same on every run, where tracemalloc's
        # reading depends on what CPython's tuple free lists held before.
        db, eut = generate_synthetic(GeneratorParams(sequence_count=2000, seed=5))
        sequences = parse_database(*serialize_database(db, eut))[0].sequences
        assert all(isinstance(seq, tuple) for seq in sequences)
        assert all(sys.getsizeof(seq) == sys.getsizeof(tuple(seq)) for seq in sequences)
        qitems = [q for seq in sequences for q in seq if q is not None]
        distinct = {id(q): q for q in qitems}.values()
        size = sys.getsizeof(sequences) + sum(map(sys.getsizeof, (*sequences, *distinct)))
        assert size / len(qitems) < 18  # 16.8 B; a wrapper object per sequence made it 20.4

    def test_parsed_size_per_qitem(self, tmp_path):
        # Flat, a parsed q-item costs about 18.6 B here (its slot and its
        # share of the tuple); one tuple per itemset made it about 37 B.
        # Traced in a fresh interpreter: tuples that this process freed
        # earlier sit on CPython's free lists, and a parse here would take
        # them back without tracemalloc seeing it.
        db, eut = generate_synthetic(GeneratorParams(sequence_count=2000, seed=5))
        count = sum(1 for seq in db.sequences for _ in seq.iter_slots())
        for path, text in zip(("db", "eut"), serialize_database(db, eut)):
            (tmp_path / path).write_text(text, encoding="utf-8")
        script = (
            "import sys, tracemalloc\n"
            "from pathlib import Path\n"
            "from hucsp.dataio import parse_database\n"
            "texts = [Path(p).read_text(encoding='utf-8') for p in sys.argv[1:]]\n"
            "tracemalloc.start()\n"
            "db, eut = parse_database(*texts)\n"
            "print(len(db.sequences), tracemalloc.get_traced_memory()[0])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(hucsp.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "db"), str(tmp_path / "eut")],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        sequences, size = map(int, proc.stdout.split())
        assert sequences == 2000
        assert size / count < 20
