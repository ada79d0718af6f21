import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flunowcast import ingest
from flunowcast.errors import (
    DataError,
    GapInCases,
    MalformedHeader,
    MalformedRow,
    NegativeCount,
    NonContiguousAfterFill,
    ValueOutOfRange,
)
from flunowcast.ingest import (
    parse_cases_csv,
    parse_trends_csv,
    write_cases_csv,
    write_trends_csv,
)
from flunowcast.timeseries import WeekStamp, Weekly, week_labels

from .oracles import (
    isocalendar_walk,
    row_by_row_cases_csv,
    row_by_row_trends_csv,
    str_per_cell_trends_csv,
)


class TestParseTrends:
    def test_two_query_file(self):
        data = b"week,flu,fever\n2009-W01,10,20\n2009-W02,30,40\n2009-W03,50,60\n"
        panel = parse_trends_csv(data)
        assert panel.labels == ("flu", "fever")
        assert len(panel.matrix) == 3
        assert panel.matrix[:, 1].tolist() == [20.0, 40.0, 60.0]

    def test_zero_fill_restores_omitted_week(self):
        data = b"week,flu\n2009-W01,10\n2009-W04,40\n"
        panel = parse_trends_csv(data)
        assert len(panel.matrix) == 4
        assert panel.matrix[:, 0].tolist() == [10.0, 0.0, 0.0, 40.0]

    def test_value_out_of_range(self):
        with pytest.raises(ValueOutOfRange):
            parse_trends_csv(b"week,flu\n2009-W01,101\n")
        with pytest.raises(ValueOutOfRange):
            parse_trends_csv(b"week,flu\n2009-W01,-1\n")

    def test_malformed_header(self):
        with pytest.raises(MalformedHeader):
            parse_trends_csv(b"date,flu\n2009-W01,10\n")
        with pytest.raises(MalformedHeader):
            parse_trends_csv(b"week,flu,flu\n2009-W01,1,2\n")

    def test_out_of_order_weeks_rejected(self):
        with pytest.raises(NonContiguousAfterFill):
            parse_trends_csv(b"week,flu\n2009-W05,1\n2009-W02,2\n")

    def test_round_trip_identity(self):
        data = b"week,flu,fever\n2009-W51,0,3\n2009-W52,10,0\n2009-W53,100,50\n2010-W01,7,7\n"
        panel = parse_trends_csv(data)
        assert write_trends_csv(panel) == data
        assert parse_trends_csv(write_trends_csv(panel)) == panel


class TestParseCases:
    def test_study_span_length(self):
        # 2009-W01 .. 2013-W52 inclusive is 261 contiguous weeks
        start = WeekStamp(2009, 1)
        lines = ["week,cases"]
        lines += [f"{start.add(i)},{i % 40}" for i in range(261)]
        series = parse_cases_csv(("\n".join(lines) + "\n").encode())
        assert series.labels == ("cases",) and series.matrix.shape == (261, 1)
        assert series.start == start
        assert series.start.add(len(series.matrix) - 1) == WeekStamp(2013, 52)

    def test_gap_is_error(self):
        with pytest.raises(GapInCases):
            parse_cases_csv(b"week,cases\n2009-W01,5\n2009-W03,6\n")

    def test_negative_count(self):
        with pytest.raises(NegativeCount):
            parse_cases_csv(b"week,cases\n2009-W01,-3\n")

    def test_counts_are_bounded_at_2_to_the_53(self):
        assert parse_cases_csv(b"week,cases\n2009-W01,9007199254740992\n").values[0] == 2 ** 53
        with pytest.raises(MalformedRow, match="^line 3: case count above 2"):
            parse_cases_csv(b"week,cases\n2009-W01,1\n2009-W02,9007199254740993\n")

    def test_round_trip_identity(self):
        data = b"week,cases\n2009-W52,5\n2009-W53,0\n2010-W01,12\n"
        series = parse_cases_csv(data)
        assert write_cases_csv(series) == data
        assert parse_cases_csv(write_cases_csv(series)) == series


@pytest.mark.parametrize("parser,header", [
    (parse_trends_csv, "week,flu"),
    (parse_cases_csv, "week,cases"),
])
@pytest.mark.parametrize("cell", ["²", "١٢", "+5", "1_0"])
def test_only_ascii_digits_parse_as_integers(parser, header, cell):
    # str.isdigit accepts '²' (which int() then rejects) and Arabic-Indic
    # digits (which int() accepts); int() alone accepts '+5' and '1_0'
    with pytest.raises(MalformedRow):
        parser(f"{header}\n2015-W01,{cell}\n".encode("utf-8"))


@pytest.mark.parametrize("parser,header", [
    (parse_trends_csv, "week,flu"),
    (parse_cases_csv, "week,cases"),
])
@pytest.mark.parametrize("sign", ["", "-"])
def test_an_integer_too_long_for_int_is_a_malformed_row(parser, header, sign):
    # int() refuses strings of more than 4,300 digits with a bare ValueError
    data = f"{header}\n2015-W01,1\n2015-W02,{sign}{'9' * 5000}\n".encode("utf-8")
    with pytest.raises(MalformedRow, match="^line 3: integer of 5000 digits is too long$"):
        parser(data)


@pytest.mark.parametrize("parser,header", [
    (parse_trends_csv, "week,flu"),
    (parse_cases_csv, "week,cases"),
])
def test_first_bad_line_in_file_order_wins(parser, header):
    # line 3 repeats a week, line 5 has a malformed cell
    with pytest.raises(NonContiguousAfterFill, match="week 2009-W01 "):
        parser(f"{header}\n2009-W01,1\n2009-W01,2\n2009-W02,3\n2009-W03,x\n".encode())
    # line 3 has a malformed cell, line 5 repeats a week
    with pytest.raises(MalformedRow, match="line 3: "):
        parser(f"{header}\n2009-W01,1\n2009-W02,x\n2009-W03,3\n2009-W03,4\n".encode())


# the rules each parser checks a data row against, in the order it checks them
CHECK_ORDER = {
    parse_trends_csv: ("count", "stamp", "integer", "volume", "order"),
    parse_cases_csv: ("count", "stamp", "integer", "negative", "above", "gap", "order"),
}
RULE_ERRORS = {"count": MalformedRow, "stamp": MalformedRow, "integer": MalformedRow,
               "volume": ValueOutOfRange, "negative": NegativeCount, "above": MalformedRow,
               "gap": GapInCases, "order": NonContiguousAfterFill}
# the cell of a row that each rule's edit sets; "count" adds a cell
RULE_CELLS = {
    parse_trends_csv: {"stamp": 0, "order": 0, "volume": 1, "integer": 2},
    parse_cases_csv: {"stamp": 0, "gap": 0, "order": 0, "integer": 1, "negative": 1, "above": 1},
}
BAD_CELLS = {"stamp": "2016-W53", "integer": "x", "volume": "101", "negative": "-1",
             "above": str(2 ** 53 + 1)}


def rule_breaking_csv(parser, breaks):
    """A file of 2015-W01..2015-W06 (a case file, or a panel of two queries)
    whose line L breaks each rule of breaks[L]."""
    header = "week,cases" if parser is parse_cases_csv else "week,a,b"
    rows = [[w] + ["5"] * header.count(",") for w in week_labels(WeekStamp(2015, 1), 6)]
    for line, rules in breaks.items():
        i = line - 2
        for rule in rules:
            if rule == "count":
                rows[i].append("5")
            elif rule == "order":  # the week before's stamp
                rows[i][0] = rows[i - 1][0]
            elif rule == "gap":  # the week after's stamp
                rows[i][0] = rows[i + 1][0]
            else:
                rows[i][RULE_CELLS[parser][rule]] = BAD_CELLS[rule]
    return ("\n".join([header, *map(",".join, rows)]) + "\n").encode()


class TestRuleOrder:
    @pytest.mark.parametrize("parser,first,second", [
        (parser, a, b) for parser, rules in CHECK_ORDER.items()
        for a, b in itertools.permutations(rules, 2)])
    def test_the_first_bad_line_wins(self, parser, first, second):
        alone = parsed(parser, rule_breaking_csv(parser, {3: {first}}))
        assert alone[0] is RULE_ERRORS[first]
        assert parsed(parser, rule_breaking_csv(parser, {3: {first}, 5: {second}})) == alone

    @pytest.mark.parametrize("parser,first,second", [
        (parser, a, b) for parser, rules in CHECK_ORDER.items()
        for a, b in itertools.combinations(rules, 2)
        # two edits of one cell cannot both hold
        if "count" in (a, b) or RULE_CELLS[parser][a] != RULE_CELLS[parser][b]])
    def test_within_a_row_the_earlier_rule_wins(self, parser, first, second):
        alone = parsed(parser, rule_breaking_csv(parser, {4: {first}}))
        assert alone[0] is RULE_ERRORS[first]
        assert parsed(parser, rule_breaking_csv(parser, {4: {first, second}})) == alone


@pytest.mark.parametrize("parser,header", [
    (parse_trends_csv, "week,flu"),
    (parse_cases_csv, "week,cases"),
])
def test_a_bad_cell_and_a_later_bad_stamp_do_not_balance(parser, header):
    # "1e2" holds one digit fewer than its length, the 10-byte stamp 2015-W52-1 one more
    with pytest.raises(MalformedRow, match="^line 3: not an integer: '1e2'$"):
        parser(f"{header}\n2015-W50,1\n2015-W51,1e2\n2015-W52-1,5\n".encode())


class TestIntegerEdges:
    @pytest.mark.parametrize("pad", ["", "000", "0" * 20])
    def test_counts_up_to_2_to_the_53_with_padding(self, pad):
        assert parse_cases_csv(f"week,cases\n2015-W01,{pad}{2 ** 53}\n".encode()).values[0] == 2 ** 53
        with pytest.raises(MalformedRow, match="^line 2: case count above 2"):
            parse_cases_csv(f"week,cases\n2015-W01,{pad}{2 ** 53 + 1}\n".encode())

    @pytest.mark.parametrize("count", ["-" + "9" * 25, str(-2 ** 63), str(-2 ** 63 - 1)])
    def test_a_negative_count_past_int64_is_negative(self, count):
        with pytest.raises(NegativeCount, match=f"^line 2: negative case count {count}$"):
            parse_cases_csv(f"week,cases\n2015-W01,{count}\n".encode())

    @pytest.mark.parametrize("count", [str(2 ** 63), str(2 ** 63 - 1), "9" * 25])
    def test_a_count_past_int64_is_above_2_to_the_53(self, count):
        with pytest.raises(MalformedRow, match="^line 2: case count above 2"):
            parse_cases_csv(f"week,cases\n2015-W01,{count}\n".encode())

    @pytest.mark.parametrize("volume", [str(2 ** 63), str(-2 ** 63), "-" + "9" * 25, "9" * 4300])
    def test_a_volume_past_int64_is_named_in_full(self, volume):
        with pytest.raises(ValueOutOfRange, match=f"^line 2: search volume {volume} outside 0-100$"):
            parse_trends_csv(f"week,flu\n2015-W01,{volume}\n".encode())

    def test_a_zero_padded_25_digit_volume_reads_as_42(self):
        assert parse_trends_csv(f"week,flu\n2015-W01,{'0' * 23}42\n".encode()).matrix[0, 0] == 42

    @pytest.mark.parametrize("parser,header", [
        (parse_trends_csv, "week,flu"),
        (parse_cases_csv, "week,cases"),
    ])
    def test_a_zero_padded_5000_digit_cell_is_too_long(self, parser, header):
        with pytest.raises(MalformedRow, match="^line 2: integer of 5000 digits is too long$"):
            parser(f"{header}\n2015-W01,{'0' * 4998}42\n".encode())


# ISO years 2009, 2015, 2020 and 2026 have a week 53
@st.composite
def gapped_panels(draw):
    """(start, rows of the full weekly range, whether the file lists each row)."""
    start = WeekStamp(draw(st.sampled_from([2009, 2015, 2020, 2026])), draw(st.integers(47, 53)))
    n, width = draw(st.integers(8, 14)), draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(0, 100), min_size=width, max_size=width),
                         min_size=n, max_size=n))
    listed = [True] + draw(st.lists(st.booleans(), min_size=n - 2, max_size=n - 2)) + [True]
    return start, [r if keep else [0] * width for r, keep in zip(rows, listed)], listed


class TestWriterRoundTrip:
    @given(gapped_panels())
    @settings(max_examples=200)
    def test_gapped_panels_across_week_53(self, case):
        start, rows, listed = case
        weeks = ["%04d-W%02d" % w for w in isocalendar_walk(*map(int, str(start).split("-W")),
                                                           len(rows))]
        header = "week," + ",".join(f"q{j}" for j in range(len(rows[0])))
        lines = [f"{w}," + ",".join(map(str, r)) for w, r in zip(weeks, rows)]
        gapped = [line for line, keep in zip(lines, listed) if keep]
        panel = parse_trends_csv(("\n".join([header] + gapped) + "\n").encode())
        full = ("\n".join([header] + lines) + "\n").encode()
        assert write_trends_csv(panel) == full
        assert parse_trends_csv(full) == panel
        cases = parse_cases_csv(("week,cases\n" + "".join(
            f"{w},{r[0]}\n" for w, r in zip(weeks, rows))).encode())
        assert parse_cases_csv(write_cases_csv(cases)) == cases


# values each writer prints, and ones its parser refuses: fractions, negatives,
# volumes past 100, counts past 2**53 and past int64
written_values = st.one_of(
    st.integers(-2, 102).map(float),
    st.sampled_from([-0.0, 0.5, -0.5, 50.7, 3.7, 2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 63, -2.0 ** 63,
                     1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False))
written_starts = st.builds(WeekStamp, st.sampled_from([2009, 2015, 2020]), st.integers(50, 52))


@st.composite
def written_panels(draw):
    """Panels of 0-100 integers with up to two cells from written_values, and
    labels that may be empty or hold a comma, a line break or a lone surrogate."""
    n, width = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(0, 100).map(float), min_size=width, max_size=width),
                         min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 2))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, width - 1))] = draw(written_values)
    labels = draw(st.lists(st.one_of(st.text(min_size=1, max_size=3),
                                     st.sampled_from(["", ",", "q,1", "\n", "\r", "\ud800"])),
                           min_size=width, max_size=width, unique=True))
    return Weekly(draw(written_starts), tuple(labels), rows)


def utf8(text):
    """Whether `text` has a UTF-8 form, that is holds no lone surrogate."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def first_refused_week(start, rows, valid):
    return start.add(next(t for t, row in enumerate(rows) if not all(map(valid, row))))


class TestWritersRefuseWhatParsersRefuse:
    """A writer's file parses back to what it was given, or the writer raises
    the parser's error for the first week the parser would refuse."""

    @given(written_panels())
    @settings(max_examples=300)
    def test_search_volumes(self, panel):
        def valid(v):
            return v.is_integer() and 0 <= v <= 100

        rows = panel.matrix.tolist()
        labels_ok = all(l and not {",", "\n", "\r"} & set(l) and utf8(l) for l in panel.labels)
        try:
            data = write_trends_csv(panel)
        except DataError as exc:
            assert not (labels_ok and all(valid(v) for row in rows for v in row))
            if labels_ok:
                assert str(exc).startswith(f"week {first_refused_week(panel.start, rows, valid)}: ")
        else:
            assert parse_trends_csv(data) == panel

    @given(written_starts, st.lists(st.one_of(st.integers(0, 1000).map(float), written_values),
                                    min_size=1, max_size=6))
    @settings(max_examples=300)
    def test_case_counts(self, start, values):
        def valid(v):
            return v.is_integer() and 0 <= v <= 2 ** 53

        cases = Weekly(start, ("cases",), [[v] for v in values])
        try:
            data = write_cases_csv(cases)
        except DataError as exc:
            week = first_refused_week(start, [[v] for v in values], valid)
            assert str(exc).startswith(f"week {week}: ")
        else:
            assert parse_cases_csv(data) == cases

    def test_what_each_refusal_raises(self):
        start = WeekStamp(2009, 1)
        with pytest.raises(MalformedRow, match=r"^week 2009-W02: not an integer: 50\.7$"):
            write_trends_csv(Weekly(start, ("a", "b"), [[1, 2], [50.7, 150]]))
        with pytest.raises(ValueOutOfRange,
                           match="^week 2009-W02: search volume 150 outside 0-100$"):
            write_trends_csv(Weekly(start, ("a", "b"), [[1, 2], [50, 150]]))
        for label in ("b,c", "", "\ud800"):
            with pytest.raises(MalformedHeader, match="^query labels must be non-empty UTF-8, "
                                                      "without commas or line breaks$"):
                write_trends_csv(Weekly(start, ("a", label), [[1, 2]]))
        for count, error, message in [(-1, NegativeCount, "negative case count -1"),
                                      (3.7, MalformedRow, r"not an integer: 3\.7"),
                                      (1e300, MalformedRow, r"case count above 2\*\*53")]:
            with pytest.raises(error, match=f"^week 2009-W02: {message}$"):
                write_cases_csv(Weekly(start, ("cases",), [[1], [count]]))


def refusal(call, *args):
    """The class of the DataError `call` raises, and its message after the
    `week ...: ` or `line ...: ` that says where; None if it raises none."""
    try:
        call(*args)
    except DataError as exc:
        return type(exc), str(exc).split(": ", 1)[1]
    return None


class TestOneValueRule:
    """Each format's value rule, said once: a writer refuses a value when the
    parser refuses it written as text, with the same error and words; the
    writer prints the value by `{v:g}`, the parser as its exact integer."""

    edges = st.one_of(st.sampled_from([-1, 0, 100, 101, 2 ** 53, 2 ** 53 + 2]),
                      st.integers(-999_999, 999_999))

    @staticmethod
    def agree(written, parsed, v):
        if written is not None:
            error, words = written
            written = error, words.replace(f"{float(v):g}", str(v))
        assert written == parsed

    @given(edges)
    @example(2 ** 53 + 2)
    def test_search_volumes(self, v):
        written = refusal(write_trends_csv, Weekly(WeekStamp(2009, 1), ("q",), [[float(v)]]))
        parsed = refusal(parse_trends_csv, b"week,q\n2009-W01,%d\n" % v)
        self.agree(written, parsed, v)

    @given(edges)
    @example(-1)
    @example(2 ** 53 + 2)
    def test_case_counts(self, v):
        written = refusal(write_cases_csv, Weekly(WeekStamp(2009, 1), ("cases",), [[float(v)]]))
        parsed = refusal(parse_cases_csv, b"week,cases\n2009-W01,%d\n" % v)
        self.agree(written, parsed, v)


@pytest.mark.parametrize("stamp", ["0099-W54", "0000-W01", "2010-W53"])
def test_an_invalid_week_is_named_as_written(stamp):
    with pytest.raises(MalformedRow, match=f"^line 2: invalid ISO week {stamp}$"):
        parse_cases_csv(f"week,cases\n{stamp},1\n".encode())


class TestFuzz:
    @given(st.binary(max_size=300))
    @settings(max_examples=300)
    def test_parsers_fail_structurally_never_crash(self, blob):
        for parser in (parse_trends_csv, parse_cases_csv):
            try:
                parser(blob)
            except DataError:
                pass


VALID_PANEL = "week,flu,fever\n2015-W51,10,20\n2015-W52,30,40\n2015-W53,100,0\n2016-W01,7,7\n"
VALID_CASES = "week,cases\n2015-W51,5\n2015-W52,0\n2015-W53,12\n2016-W01,3\n"

ascii_counts = st.sampled_from(["0", "5", "12", "100", "101"])
# non-ASCII digits, signs, padding and other number forms
integer_cells = st.one_of(
    st.text(st.characters(categories=["Nd", "No"]), min_size=1, max_size=3),
    st.sampled_from(["²", "١٢", "３", "⑤", "½", "1e2", "1.0", "0x1", "1_0", "", "-", "+"]),
    st.builds(str.__add__, st.sampled_from(["+", "-", "--", "+-", "-+"]), ascii_counts),
    st.builds(lambda pad, n, tail: pad + n + tail, st.sampled_from([" ", "\t", "\u00a0", ""]),
              ascii_counts, st.sampled_from([" ", "\t", "\n", ","])),
)
# 2015 has an ISO week 53, 2016 does not
week_cells = st.sampled_from([
    "2016-W53", "2015-W54", "2015-W00", " 2015-W52", "2015-W52 ", "2015-w52", "2015-W5",
    "+2015-W52", "２０１５-W52", "2015-W٥٢", "2015-W52-1", "", "2009-W1", "2009-101",
])


@st.composite
def mutated_csv(draw, text, cells=integer_cells,
                ops=("value", "week", "duplicate", "drop", "swap")):
    """A valid CSV with some cells replaced and some rows duplicated, dropped or swapped."""
    rows = [line.split(",") for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(1, len(rows) - 1))
        op = draw(st.sampled_from(ops))
        if op == "value":
            rows[i][draw(st.integers(1, len(rows[i]) - 1))] = draw(cells)
        elif op == "week":
            rows[i][0] = draw(week_cells)
        elif op == "duplicate":
            rows.insert(i, list(rows[i]))
        elif op == "drop" and len(rows) > 2:
            del rows[i]
        elif op == "swap":
            j = draw(st.integers(1, len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
    return ("\n".join(",".join(row) for row in rows) + "\n").encode("utf-8")


class TestGrammarFuzz:
    @pytest.mark.parametrize("parser,text", [
        (parse_trends_csv, VALID_PANEL),
        (parse_cases_csv, VALID_CASES),
    ])
    def test_valid_inputs_parse(self, parser, text):
        parser(text.encode("utf-8"))

    @given(panel=mutated_csv(VALID_PANEL), cases=mutated_csv(VALID_CASES))
    @settings(max_examples=500)
    def test_cell_mutations_raise_only_data_errors(self, panel, cases):
        for parser, blob in ((parse_trends_csv, panel), (parse_cases_csv, cases)):
            try:
                parser(blob)
            except DataError:
                pass


# cells at the edges of the integer grammar and the value rules: signed
# zeros, leading zeros, values past 0-100, 2**53 and int64, past int()'s
# 4,300 digits
array_cells = st.one_of(st.sampled_from(
    ["-0", "-00", "007", "0100", "0101", "101", "-1", "250", "0" * 16 + "42", "9" * 16,
     "-" + "9" * 25, "0" * 23 + "42", str(2 ** 53), str(2 ** 53 + 1), str(2 ** 63),
     str(-2 ** 63), "9" * 5000, "0" * 4998 + "42"]),
    integer_cells)
# mostly cell changes, so that most files stay valid elsewhere
array_ops = ("value", "value", "value", "week", "duplicate", "drop", "swap")


def parsed(parser, blob):
    """What `parser` makes of `blob`: its fields, arrays as shape and raw
    bytes (so -0.0 differs from 0.0), or the error's type and message."""
    try:
        result = parser(blob)
    except DataError as exc:
        return type(exc), str(exc)
    return [(v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
            for v in vars(result).values()]


def row_by_row(parser, blob):
    """parsed() of the row-by-row oracle for `parser`."""
    oracle = {parse_trends_csv: row_by_row_trends_csv, parse_cases_csv: row_by_row_cases_csv}
    return parsed(oracle[parser], blob)


class TestWholeFilePath:
    @pytest.mark.parametrize("parser,header,cells,weeks", [
        (parse_trends_csv, "week,flu", ["-0", "007", "0100"], ["2015-W53", "2016-W01", "2016-W03"]),
        (parse_cases_csv, "week,cases", ["-0", "007", "0" * 15], ["2015-W52", "2015-W53", "2016-W01"]),
        # 15-digit cells, and -0 between others
        (parse_cases_csv, "week,cases", ["9" * 15, "0" * 14 + "1", "-0"],
         ["2015-W52", "2015-W53", "2016-W01"]),
        (parse_trends_csv, "week,flu", ["0" * 14 + "1", "-0", "100"],
         ["2015-W52", "2015-W53", "2016-W01"]),
    ])
    def test_reads_what_the_row_reader_reads(self, parser, header, cells, weeks):
        text = "".join(f"{w},{c}\n" for w, c in zip(weeks, cells))
        blob = f"{header}\n{text}".encode()
        _, values = ingest._table(blob, 2, *ingest._CASE_VALUES, gaps=True)
        assert values.tolist() == [[int(c)] for c in cells]
        arrays = [v for v in vars(parser(blob)).values() if isinstance(v, np.ndarray)]
        assert not any(np.signbit(a).any() for a in arrays)  # -0 reads as 0
        assert parsed(parser, blob) == row_by_row(parser, blob)

    @pytest.mark.parametrize("parser,text", [
        (parse_trends_csv, "week,flu\n2015-W01,7\n2015-W02,101\n"),
        (parse_trends_csv, "week,flu\n2015-W01,7\n2015-W02,-1\n"),
        (parse_trends_csv, "week,flu\n2015-W02,7\n2015-W02,8\n"),
        (parse_trends_csv, "week,flu\n2015-W03,7\n2015-W02,8\n"),
        (parse_cases_csv, "week,cases\n2015-W01,7\n2015-W02,-1\n"),
        (parse_cases_csv, "week,cases\n2015-W01,7\n2015-W03,8\n"),
        (parse_cases_csv, "week,cases\n2015-W02,7\n2015-W02,8\n"),
        (parse_cases_csv, "week,cases\n2015-W02,7\n2015-W01,8\n"),
    ])
    def test_a_failed_check_raises_as_the_row_reader_does(self, parser, text):
        with pytest.raises(DataError):
            parser(text.encode())
        assert parsed(parser, text.encode()) == row_by_row(parser, text.encode())

    @given(panel=mutated_csv(VALID_PANEL, array_cells, array_ops),
           cases=mutated_csv(VALID_CASES, array_cells, array_ops))
    @settings(max_examples=500)
    def test_agrees_with_the_row_reader(self, panel, cases):
        for parser, blob in ((parse_trends_csv, panel), (parse_cases_csv, cases)):
            assert parsed(parser, blob) == row_by_row(parser, blob)


# cells and edits at the edges of the row grammar: non-ASCII digits,
# signs, spaces, empty cells, 16 digits and misplaced minus signs
edge_cells = st.sampled_from(["²", "١", "+5", " 5", "5 ", "", "1" * 16, "0" * 16, "-", "--1",
                              "1-2", "9" * 15, "-" + "9" * 15, "x"])


@st.composite
def edited_csv(draw):
    """(width, file): a valid file of 2-12 columns from 2015-W50 (at width 2
    a case file) through mutated_csv with edge cells, then maybe without its
    final newline or with a trailing blank line."""
    width = draw(st.integers(2, 12))
    header = "week,cases" if width == 2 else "week," + ",".join(f"q{j}" for j in range(1, width))
    volumes = st.lists(st.integers(0, 100), min_size=width - 1, max_size=width - 1)
    rows = [f"{week}," + ",".join(map(str, draw(volumes)))
            for week in week_labels(WeekStamp(2015, 50), draw(st.integers(1, 6)))]
    blob = draw(mutated_csv("\n".join([header, *rows]) + "\n",
                            st.one_of(edge_cells, array_cells), array_ops))
    ending = draw(st.sampled_from(["kept", "missing", "blank line"]))
    return width, {"kept": blob, "missing": blob[:-1], "blank line": blob + b"\n"}[ending]


class TestByteCheck:
    @given(case=edited_csv())
    # a 7-digit stamp and a non-digit cell: the digit count balances, and
    # only the stamp flag refuses the file
    @example(case=(2, b"week,cases\n2009-101,1\n2009-W02,x\n"))
    # -0, padding and 15 digits, without a final newline
    @example(case=(3, b"week,a,b\n2015-W53,-0,0100\n2016-W01,7,000000000000042"))
    # the separator counts balance, but the first row holds two newlines
    @example(case=(3, b"week,a,b\n2009-W01,5\n7\n2009-W02,1,2,2009-W03,3,4\n"))
    @example(case=(2, b"week,cases\n"))
    @example(case=(2, b"week,cases"))
    @settings(max_examples=500)
    def test_agrees_with_the_row_reader(self, case):
        width, blob = case
        parsers = (parse_trends_csv, parse_cases_csv) if width == 2 else (parse_trends_csv,)
        for parser in parsers:
            assert parsed(parser, blob) == row_by_row(parser, blob)


@pytest.mark.parametrize("cells", [
    ["x" + "1" * 5000, "7"], ["1" * 5000, "x"], ["x", "1" * 5000], ["7", "-" + "1" * 5000],
    ["-", "7"], ["--5", "7"], ["7", "5-"], ["²", "x"], ["1" * 4300, "x"], ["1" * 4301, "x"]])
def test_a_row_names_its_first_bad_cell_as_the_row_reader_does(cells):
    # not an integer wins over too long within a cell, the first bad cell within a row
    blob = ("week,a,b\n2015-W01,1,2\n2015-W02," + ",".join(cells) + "\n").encode()
    assert parsed(parse_trends_csv, blob)[0] is MalformedRow
    assert parsed(parse_trends_csv, blob) == row_by_row(parse_trends_csv, blob)


@st.composite
def volume_panels(draw):
    """A panel of 1-12 queries and 1-30 weeks of whole volumes, -0.0 among them."""
    width = draw(st.integers(1, 12))
    cell = st.one_of(st.integers(0, 100).map(float), st.just(-0.0))
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), min_size=1, max_size=30))
    start = draw(st.sampled_from([WeekStamp(2015, 50), WeekStamp(1, 1), WeekStamp(9999, 20)]))
    return Weekly(start, tuple(f"q{j}" for j in range(width)), np.array(rows))


class TestWriterTable:
    @given(volume_panels())
    @settings(max_examples=200)
    def test_prints_what_str_prints(self, panel):
        assert write_trends_csv(panel) == str_per_cell_trends_csv(panel)
